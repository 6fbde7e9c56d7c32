// Package vsys reimplements PlanetLab's vsys facility: controlled
// execution of privileged operations from inside an unprivileged slice.
//
// vsys gives a slice a pair of FIFO pipes per exported script. The slice
// writes an invocation into the control pipe (frontend side); a daemon in
// the root context reads it, runs the registered backend with root
// privileges, and streams output and an exit code back through the other
// pipe. Access is governed by a per-script ACL of slice names.
//
// The paper's `umts` command (§2.3) is exactly such a script pair: the
// frontend accepts start/stop/status/add/del from the user, the backend
// performs the privileged PPP, iproute2 and iptables work.
package vsys

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/onelab/umtslab/internal/sim"
	"github.com/onelab/umtslab/internal/vserver"
)

// Errors returned by the manager and connections.
var (
	ErrNoScript   = errors.New("vsys: no such script")
	ErrDenied     = errors.New("vsys: slice not authorized for script")
	ErrBusy       = errors.New("vsys: invocation already in progress on this connection")
	ErrBadRequest = errors.New("vsys: malformed request")
	ErrClosed     = errors.New("vsys: connection closed")
)

// Result is what the frontend receives when the backend finishes.
type Result struct {
	Code   int      // exit code; 0 means success
	Output []string // stdout lines
	Errs   []string // stderr lines
}

// Ok reports whether the invocation succeeded.
func (r Result) Ok() bool { return r.Code == 0 }

func (r Result) String() string {
	var b strings.Builder
	for _, l := range r.Output {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	for _, l := range r.Errs {
		b.WriteString("! " + l)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "exit %d", r.Code)
	return b.String()
}

// Invocation is the backend's view of one request. The backend runs in
// the root security context; it may finish synchronously or hold the
// invocation across simulated time (e.g. while a PPP dial completes) and
// call Exit later. Exactly one Exit call terminates the invocation.
type Invocation struct {
	Script string
	Slice  *vserver.Slice // calling slice
	Args   []string

	conn   *Conn
	output []string
	errs   []string
	done   bool
}

// Printf appends a line to the invocation's stdout.
func (inv *Invocation) Printf(format string, args ...any) {
	inv.output = append(inv.output, fmt.Sprintf(format, args...))
}

// Errorf appends a line to the invocation's stderr.
func (inv *Invocation) Errorf(format string, args ...any) {
	inv.errs = append(inv.errs, fmt.Sprintf(format, args...))
}

// Exit completes the invocation with the given code and flushes the
// response through the pipe back to the frontend. Calling Exit twice
// panics: a backend that double-completes is a programming error.
func (inv *Invocation) Exit(code int) {
	if inv.done {
		panic("vsys: Invocation.Exit called twice")
	}
	inv.done = true
	inv.conn.respond(code, inv.output, inv.errs)
}

// Fail is shorthand for Errorf followed by Exit(1).
func (inv *Invocation) Fail(format string, args ...any) {
	inv.Errorf(format, args...)
	inv.Exit(1)
}

// Backend executes privileged work for one invocation.
type Backend func(inv *Invocation)

// Manager is the root-context vsys daemon of one node.
type Manager struct {
	loop    *sim.Loop
	host    *vserver.Host
	scripts map[string]Backend
	acl     map[string]map[string]bool // script -> slice name -> allowed
}

// NewManager creates the daemon for a host.
func NewManager(loop *sim.Loop, host *vserver.Host) *Manager {
	return &Manager{
		loop:    loop,
		host:    host,
		scripts: make(map[string]Backend),
		acl:     make(map[string]map[string]bool),
	}
}

// Register exports a backend under a script name. Re-registering replaces
// the backend (used in tests).
func (m *Manager) Register(script string, b Backend) {
	m.scripts[script] = b
}

// Allow grants a slice access to a script.
func (m *Manager) Allow(script, sliceName string) {
	if m.acl[script] == nil {
		m.acl[script] = make(map[string]bool)
	}
	m.acl[script][sliceName] = true
}

// Revoke removes a slice's access.
func (m *Manager) Revoke(script, sliceName string) {
	delete(m.acl[script], sliceName)
}

// Scripts lists the slice's visible scripts (its vsys directory listing).
func (m *Manager) Scripts(sliceName string) []string {
	var out []string
	for s := range m.scripts {
		if m.acl[s][sliceName] {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// Open creates the FIFO pipe pair connecting a slice to a script.
func (m *Manager) Open(slice *vserver.Slice, script string) (*Conn, error) {
	backend, ok := m.scripts[script]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoScript, script)
	}
	if !m.acl[script][slice.Name] {
		return nil, fmt.Errorf("%w: %s -> %s", ErrDenied, slice.Name, script)
	}
	return &Conn{mgr: m, slice: slice, script: script, backend: backend}, nil
}

// Conn is a slice's open pipe pair to one script. One invocation may be
// in flight at a time, mirroring the serialized FIFO protocol.
type Conn struct {
	mgr     *Manager
	slice   *vserver.Slice
	script  string
	backend Backend

	busy   bool
	closed bool
	cb     func(Result)
}

// Invoke marshals the request into the control FIFO and arranges for cb
// to run when the backend responds. The request crosses the pipe
// asynchronously (next event-loop tick), like a real FIFO write.
func (c *Conn) Invoke(args []string, cb func(Result)) error {
	if c.closed {
		return ErrClosed
	}
	if c.busy {
		return ErrBusy
	}
	c.busy = true
	c.cb = cb
	wire := encodeRequest(args)
	c.mgr.loop.Post(func() {
		decoded, err := decodeRequest(wire)
		if err != nil {
			c.respond(125, nil, []string{err.Error()})
			return
		}
		inv := &Invocation{Script: c.script, Slice: c.slice, Args: decoded, conn: c}
		c.backend(inv)
	})
	return nil
}

// Close tears down the pipe pair. An in-flight invocation still completes
// in the backend but its response is discarded.
func (c *Conn) Close() { c.closed = true }

func (c *Conn) respond(code int, out, errs []string) {
	// Response crosses the output FIFO: deliver on a fresh tick.
	c.mgr.loop.Post(func() {
		c.busy = false
		cb := c.cb
		c.cb = nil
		if c.closed || cb == nil {
			return
		}
		cb(Result{Code: code, Output: out, Errs: errs})
	})
}

// encodeRequest/decodeRequest implement the single-line FIFO wire format:
// space-separated, each argument strconv-quoted. A real vsys passes argv
// over the pipe similarly (NUL separation); quoting keeps the format
// printable for traces.
func encodeRequest(args []string) string {
	q := make([]string, len(args))
	for i, a := range args {
		q[i] = strconv.Quote(a)
	}
	return strings.Join(q, " ")
}

func decodeRequest(line string) ([]string, error) {
	var args []string
	rest := strings.TrimSpace(line)
	for rest != "" {
		if rest[0] != '"' {
			return nil, fmt.Errorf("%w: %q", ErrBadRequest, line)
		}
		// Find the closing quote, honoring escapes.
		end := -1
		for i := 1; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end == -1 {
			return nil, fmt.Errorf("%w: unterminated quote in %q", ErrBadRequest, line)
		}
		arg, err := strconv.Unquote(rest[:end+1])
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		args = append(args, arg)
		rest = strings.TrimLeft(rest[end+1:], " ")
	}
	return args, nil
}
