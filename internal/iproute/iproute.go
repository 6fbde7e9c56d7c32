// Package iproute reimplements the subset of Linux policy routing
// (`ip route` / `ip rule`) that the paper's isolation scheme depends on:
// multiple routing tables with longest-prefix-match lookup, and an ordered
// list of rules that select a table by fwmark, source, and destination
// selectors.
//
// Section 2.3 of the paper installs, when a slice starts the UMTS
// connection:
//
//	ip route add default dev ppp0 table umts
//	ip rule add fwmark <m> to <dst> table umts      (one per destination)
//	ip rule add fwmark <m> from <ppp-addr> table umts
//
// which this package expresses with AddRoute and AddRule.
package iproute

import (
	"cmp"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strings"

	"github.com/onelab/umtslab/internal/netsim"
)

// Well-known table names mirroring Linux defaults.
const (
	TableMain  = "main"
	TableLocal = "local"
)

// Route is one entry in a routing table.
type Route struct {
	// Dst is the destination prefix. The zero value means default
	// (0.0.0.0/0).
	Dst netip.Prefix
	// Iface is the egress interface name ("dev").
	Iface string
	// Gateway is the next-hop ("via"); zero value means on-link.
	Gateway netip.Addr
	// Src is the preferred source address ("src"); optional.
	Src netip.Addr
	// Metric breaks ties between equal-length prefixes (lower wins).
	Metric int
}

func (r Route) String() string {
	var b strings.Builder
	if r.Dst.IsValid() && r.Dst.Bits() != 0 {
		fmt.Fprintf(&b, "%s", r.Dst)
	} else {
		b.WriteString("default")
	}
	if r.Gateway.IsValid() {
		fmt.Fprintf(&b, " via %s", r.Gateway)
	}
	fmt.Fprintf(&b, " dev %s", r.Iface)
	if r.Src.IsValid() {
		fmt.Fprintf(&b, " src %s", r.Src)
	}
	if r.Metric != 0 {
		fmt.Fprintf(&b, " metric %d", r.Metric)
	}
	return b.String()
}

// Rule is a policy-routing rule: if the packet matches every non-zero
// selector, lookup continues in Table. Rules are evaluated in ascending
// Priority order.
type Rule struct {
	Priority int
	// Selectors; zero values match everything.
	Fwmark uint32
	From   netip.Prefix // "from"
	To     netip.Prefix // "to"
	IIF    string       // incoming interface (for forwarded traffic)
	// Action.
	Table string
}

func (r Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d:", r.Priority)
	if r.From.IsValid() {
		fmt.Fprintf(&b, " from %s", r.From)
	} else {
		b.WriteString(" from all")
	}
	if r.To.IsValid() {
		fmt.Fprintf(&b, " to %s", r.To)
	}
	if r.Fwmark != 0 {
		fmt.Fprintf(&b, " fwmark %#x", r.Fwmark)
	}
	if r.IIF != "" {
		fmt.Fprintf(&b, " iif %s", r.IIF)
	}
	fmt.Fprintf(&b, " lookup %s", r.Table)
	return b.String()
}

// Matches reports whether the rule's selectors all match the packet.
func (r *Rule) Matches(pkt *netsim.Packet) bool {
	if r.Fwmark != 0 && pkt.Mark != r.Fwmark {
		return false
	}
	if r.From.IsValid() && !(pkt.Src.IsValid() && r.From.Contains(pkt.Src)) {
		return false
	}
	if r.To.IsValid() && !r.To.Contains(pkt.Dst) {
		return false
	}
	if r.IIF != "" && pkt.InIface != r.IIF {
		return false
	}
	return true
}

// Errors returned by Router operations.
var (
	ErrNoSuchTable = errors.New("iproute: no such table")
	ErrNoSuchRoute = errors.New("iproute: no such route")
	ErrNoSuchRule  = errors.New("iproute: no such rule")
	ErrNoRoute     = errors.New("iproute: network is unreachable")
)

// Router holds the rule list and routing tables of one node and provides
// the node's RouteFunc.
type Router struct {
	node   *netsim.Node
	tables map[string][]Route
	rules  []Rule

	// gen counts changes to tables and rules: every mutator bumps it.
	// Resolve walks fib, which is recompiled when gen or the node's
	// interface generation has moved since it was built.
	gen uint64
	fib fib
}

// fib is the rule set compiled for Resolve: the rules whose table
// exists, in evaluation order, each with its table's routes in Lookup's
// preference order and their egress interfaces resolved.
type fib struct {
	gen, ifaceGen uint64
	rules         []fibRule
	routes        []fibRoute // every rule's routes; a rule owns [lo, hi)
}

type fibRule struct {
	rule   *Rule // into Router.rules, which every change recompiles
	lo, hi int
}

type fibRoute struct {
	dst    netip.Prefix
	all    bool // a zero Dst: the default route, which matches any address
	bits   int
	metric int
	iface  *netsim.Iface // nil when the node has no such interface
}

// New creates a Router with an empty main table and the default rule
// (priority 32766: from all lookup main), then installs itself as the
// node's routing function.
func New(node *netsim.Node) *Router {
	r := &Router{
		node:   node,
		tables: map[string][]Route{TableMain: nil},
		rules:  []Rule{{Priority: 32766, Table: TableMain}},
		gen:    1, // the empty fib is generation 0: stale
	}
	node.Route = r.Resolve
	return r
}

// Node returns the node this router is attached to.
func (r *Router) Node() *netsim.Node { return r.node }

// AddTable creates an empty routing table if it does not exist.
func (r *Router) AddTable(name string) {
	if _, ok := r.tables[name]; !ok {
		r.tables[name] = nil
		r.gen++
	}
}

// DelTable removes a table and all its routes. The main table cannot be
// removed.
func (r *Router) DelTable(name string) error {
	if name == TableMain {
		return fmt.Errorf("iproute: cannot delete table %q", TableMain)
	}
	if _, ok := r.tables[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	delete(r.tables, name)
	r.gen++
	return nil
}

// AddRoute appends a route to the named table, creating the table if
// needed ("ip route add ... table T").
func (r *Router) AddRoute(table string, rt Route) {
	r.tables[table] = append(r.tables[table], rt)
	r.gen++
}

// DelRoute removes the first route in table equal to rt.
func (r *Router) DelRoute(table string, rt Route) error {
	routes, ok := r.tables[table]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, table)
	}
	for i := range routes {
		if routes[i] == rt {
			r.tables[table] = append(routes[:i], routes[i+1:]...)
			r.gen++
			return nil
		}
	}
	return ErrNoSuchRoute
}

// Routes returns a copy of the named table.
func (r *Router) Routes(table string) []Route {
	return append([]Route(nil), r.tables[table]...)
}

// Tables returns the table names in sorted order.
func (r *Router) Tables() []string {
	names := make([]string, 0, len(r.tables))
	for n := range r.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AddRule inserts a policy rule, keeping the list sorted by priority
// (stable for equal priorities: earlier-added first, like the kernel).
func (r *Router) AddRule(rule Rule) {
	idx := sort.Search(len(r.rules), func(i int) bool { return r.rules[i].Priority > rule.Priority })
	r.rules = append(r.rules, Rule{})
	copy(r.rules[idx+1:], r.rules[idx:])
	r.rules[idx] = rule
	r.gen++
}

// DelRule removes the first rule equal to rule.
func (r *Router) DelRule(rule Rule) error {
	for i := range r.rules {
		if r.rules[i] == rule {
			r.rules = append(r.rules[:i], r.rules[i+1:]...)
			r.gen++
			return nil
		}
	}
	return ErrNoSuchRule
}

// DelRulesByTable removes every rule pointing at the named table and
// returns how many were removed. Used by the umts teardown path.
func (r *Router) DelRulesByTable(table string) int {
	kept := r.rules[:0]
	removed := 0
	for _, rule := range r.rules {
		if rule.Table == table {
			removed++
			continue
		}
		kept = append(kept, rule)
	}
	r.rules = kept
	if removed > 0 {
		r.gen++
	}
	return removed
}

// Rules returns a copy of the rule list in evaluation order.
func (r *Router) Rules() []Rule { return append([]Rule(nil), r.rules...) }

// Lookup performs a longest-prefix-match lookup of dst in the named
// table. Among equal-length prefixes the lowest metric wins; among equal
// metrics the earliest-added wins.
func (r *Router) Lookup(table string, dst netip.Addr) (Route, error) {
	routes, ok := r.tables[table]
	if !ok {
		return Route{}, fmt.Errorf("%w: %q", ErrNoSuchTable, table)
	}
	best := -1
	for i, rt := range routes {
		bits := 0
		if rt.Dst.IsValid() {
			if !rt.Dst.Contains(dst) {
				continue
			}
			bits = rt.Dst.Bits()
		}
		if best == -1 {
			best = i
			continue
		}
		bb := 0
		if routes[best].Dst.IsValid() {
			bb = routes[best].Dst.Bits()
		}
		if bits > bb || (bits == bb && rt.Metric < routes[best].Metric) {
			best = i
		}
	}
	if best == -1 {
		return Route{}, ErrNoRoute
	}
	return routes[best], nil
}

// Resolve implements netsim.RouteFunc: walk the rules in priority order;
// for each matching rule, look the destination up in the rule's table;
// the first table that yields a route wins (kernel semantics: a missing
// or empty table, or a best route whose interface is absent, falls
// through to the next matching rule).
//
// It walks the compiled fib, so a packet costs no table or interface
// lookup by name; the fib is rebuilt on the first Resolve after the
// rules, the tables or the node's interfaces change.
func (r *Router) Resolve(pkt *netsim.Packet) (netsim.RouteResult, error) {
	f := &r.fib
	if f.gen != r.gen || f.ifaceGen != r.node.IfaceGen() {
		r.compile()
	}
	for i := range f.rules {
		fr := &f.rules[i]
		if !fr.rule.Matches(pkt) {
			continue
		}
		for j := fr.lo; j < fr.hi; j++ {
			rt := &f.routes[j]
			if !rt.all && !rt.dst.Contains(pkt.Dst) {
				continue
			}
			if rt.iface == nil {
				break
			}
			return netsim.RouteResult{Iface: rt.iface, Table: fr.rule.Table}, nil
		}
	}
	return netsim.RouteResult{}, netsim.ErrNoRoute
}

// compile rebuilds the fib from the rules, the tables and the node's
// interfaces, reusing its slices. Each rule's routes are sorted stably
// by prefix length (longest first), then metric (lowest first), so the
// first one containing a destination is the one Lookup returns.
func (r *Router) compile() {
	f := &r.fib
	n := 0
	for i := range r.rules {
		n += len(r.tables[r.rules[i].Table])
	}
	f.rules = slices.Grow(f.rules[:0], len(r.rules))
	f.routes = slices.Grow(f.routes[:0], n)
	for i := range r.rules {
		rule := &r.rules[i]
		routes, ok := r.tables[rule.Table]
		if !ok {
			continue
		}
		lo := len(f.routes)
		for _, rt := range routes {
			fr := fibRoute{dst: rt.Dst, all: !rt.Dst.IsValid(), metric: rt.Metric, iface: r.node.Iface(rt.Iface)}
			if !fr.all {
				fr.bits = rt.Dst.Bits()
			}
			f.routes = append(f.routes, fr)
		}
		slices.SortStableFunc(f.routes[lo:], func(a, b fibRoute) int {
			if a.bits != b.bits {
				return b.bits - a.bits
			}
			return cmp.Compare(a.metric, b.metric)
		})
		f.rules = append(f.rules, fibRule{rule: rule, lo: lo, hi: len(f.routes)})
	}
	f.gen, f.ifaceGen = r.gen, r.node.IfaceGen()
}

// InstallConnected populates the main table with routes for every
// interface that has a prefix or a point-to-point peer, mirroring the
// kernel's automatic connected routes.
func (r *Router) InstallConnected() {
	for _, ifc := range r.node.Ifaces() {
		if ifc.Prefix.IsValid() {
			r.AddRoute(TableMain, Route{Dst: ifc.Prefix, Iface: ifc.Name, Src: ifc.Addr})
		}
		if ifc.Peer.IsValid() {
			r.AddRoute(TableMain, Route{Dst: netip.PrefixFrom(ifc.Peer, 32), Iface: ifc.Name, Src: ifc.Addr})
		}
	}
}

// DefaultVia adds a default route through the named interface to the main
// table.
func (r *Router) DefaultVia(iface string, gw netip.Addr) {
	r.AddRoute(TableMain, Route{Iface: iface, Gateway: gw})
}

// Dump renders the rules and tables like `ip rule; ip route show table X`.
func (r *Router) Dump() string {
	var b strings.Builder
	b.WriteString("rules:\n")
	for _, rule := range r.rules {
		fmt.Fprintf(&b, "  %s\n", rule)
	}
	for _, t := range r.Tables() {
		fmt.Fprintf(&b, "table %s:\n", t)
		for _, rt := range r.tables[t] {
			fmt.Fprintf(&b, "  %s\n", rt)
		}
	}
	return b.String()
}
