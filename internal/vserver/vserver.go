// Package vserver models the Linux-VServer virtualization layer of a
// PlanetLab node: slices as soft-partitioned containers identified by a
// security context id, with sharply limited privileges. A slice can bind
// ports and send traffic (attributed by VNET+), but cannot perform
// root-context operations such as configuring routes, loading kernel
// modules, or opening serial devices — exactly the limitation (§2.2/§2.3)
// that forces the paper's design through vsys.
package vserver

import (
	"errors"
	"fmt"
	"sort"

	"github.com/onelab/umtslab/internal/netsim"
	"github.com/onelab/umtslab/internal/vnet"
)

// RootCtx is the security context of the root (admin) context.
const RootCtx uint32 = 0

// Errors returned by the host.
var (
	ErrExists     = errors.New("vserver: slice already exists")
	ErrNoSlice    = errors.New("vserver: no such slice")
	ErrPermission = errors.New("vserver: operation not permitted in slice context")
)

// Capability labels used by privileged subsystems when refusing work.
type Capability string

// Capabilities a slice does not have.
const (
	CapNetAdmin  Capability = "net_admin"  // routes, iptables, interfaces
	CapSysModule Capability = "sys_module" // kernel module loading
	CapRawIO     Capability = "raw_io"     // serial/modem device access
)

// Host is the VServer layer of one PlanetLab node.
type Host struct {
	node    *netsim.Node
	vnet    *vnet.Subsystem
	slices  map[string]*Slice
	byCtx   map[uint32]*Slice
	nextCtx uint32
}

// NewHost wraps a node with slice management. The VNET+ subsystem is
// created internally and shared by all slices.
func NewHost(node *netsim.Node) *Host {
	return &Host{
		node:    node,
		vnet:    vnet.New(node),
		slices:  make(map[string]*Slice),
		byCtx:   make(map[uint32]*Slice),
		nextCtx: 1000, // PlanetLab slice contexts start well above system ids
	}
}

// Node returns the underlying network node.
func (h *Host) Node() *netsim.Node { return h.node }

// VNet returns the host's VNET+ subsystem.
func (h *Host) VNet() *vnet.Subsystem { return h.vnet }

// CreateSlice instantiates a slice (sliver) on this node.
func (h *Host) CreateSlice(name string) (*Slice, error) {
	if _, dup := h.slices[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	s := &Slice{Name: name, Ctx: h.nextCtx, host: h}
	h.nextCtx++
	h.slices[name] = s
	h.byCtx[s.Ctx] = s
	return s, nil
}

// DeleteSlice destroys a slice and releases its ports.
func (h *Host) DeleteSlice(name string) error {
	s, ok := h.slices[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSlice, name)
	}
	for k := range s.ports {
		h.vnet.Unbind(k.proto, k.port)
	}
	delete(h.slices, name)
	delete(h.byCtx, s.Ctx)
	s.deleted = true
	return nil
}

// Slice returns a slice by name, or nil.
func (h *Host) Slice(name string) *Slice { return h.slices[name] }

// SliceByCtx returns a slice by security context, or nil.
func (h *Host) SliceByCtx(ctx uint32) *Slice { return h.byCtx[ctx] }

// Slices returns slice names in sorted order.
func (h *Host) Slices() []string {
	names := make([]string, 0, len(h.slices))
	for n := range h.slices {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type portKey struct {
	proto netsim.Proto
	port  uint16
}

// Slice is one experiment's container (sliver) on the node.
type Slice struct {
	Name string
	Ctx  uint32

	host    *Host
	ports   map[portKey]bool
	deleted bool
}

// Host returns the owning host.
func (s *Slice) Host() *Host { return s.host }

// Send transmits a packet from inside the slice. VNET+ attributes it.
// Send owns pkt on every return.
func (s *Slice) Send(pkt *netsim.Packet) error {
	if s.deleted {
		pkt.Free(s.host.vnet.Node().Loop.Buffers())
		return fmt.Errorf("%w: %q", ErrNoSlice, s.Name)
	}
	return s.host.vnet.Send(s.Ctx, pkt)
}

// Bind binds a transport port inside the slice.
func (s *Slice) Bind(proto netsim.Proto, port uint16, h netsim.PortHandler) error {
	if s.deleted {
		return fmt.Errorf("%w: %q", ErrNoSlice, s.Name)
	}
	if err := s.host.vnet.Bind(s.Ctx, proto, port, h); err != nil {
		return err
	}
	if s.ports == nil {
		s.ports = make(map[portKey]bool)
	}
	s.ports[portKey{proto, port}] = true
	return nil
}

// Unbind releases a port the slice bound.
func (s *Slice) Unbind(proto netsim.Proto, port uint16) error {
	k := portKey{proto, port}
	if !s.ports[k] {
		return fmt.Errorf("vserver: slice %q does not own %s/%d", s.Name, proto, port)
	}
	delete(s.ports, k)
	return s.host.vnet.Unbind(proto, port)
}

// Stats returns the slice's VNET+ counters.
func (s *Slice) Stats() vnet.SliceStats { return s.host.vnet.Stats(s.Ctx) }

// Require returns ErrPermission for any capability: slices have none of
// the privileged capabilities. Privileged subsystems call this with the
// invoking context; the root context (ctx 0) is allowed everything.
func Require(ctx uint32, cap Capability) error {
	if ctx == RootCtx {
		return nil
	}
	return fmt.Errorf("%w: %s (ctx %d)", ErrPermission, cap, ctx)
}
