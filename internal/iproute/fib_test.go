package iproute

import (
	"net/netip"
	"testing"

	"github.com/onelab/umtslab/internal/netsim"
	"github.com/onelab/umtslab/internal/sim"
)

// referenceResolve is the plain rule walk that Resolve's compiled table
// must reproduce: every rule in priority order, a Lookup in the table of
// each matching rule and a by-name interface lookup for its best route.
func referenceResolve(r *Router, pkt *netsim.Packet) (netsim.RouteResult, error) {
	for _, rule := range r.rules {
		if !rule.Matches(pkt) {
			continue
		}
		rt, err := r.Lookup(rule.Table, pkt.Dst)
		if err != nil {
			continue
		}
		ifc := r.node.Iface(rt.Iface)
		if ifc == nil {
			continue
		}
		return netsim.RouteResult{Iface: ifc, Table: rule.Table}, nil
	}
	return netsim.RouteResult{}, netsim.ErrNoRoute
}

// The fuzz vocabulary: small sets, so that random picks collide on
// tables, interfaces and prefixes often enough to matter.
var (
	fuzzTables = []string{TableMain, "umts", "other"}
	fuzzIfaces = []string{"eth0", "ppp0", "wlan0"}
	fuzzMarks  = []uint32{0, 0x10, 0x20}
	fuzzAddrs  = []netip.Addr{
		{}, // no source address yet
		netsim.MustAddr("10.0.0.1"),
		netsim.MustAddr("10.0.0.77"),
		netsim.MustAddr("10.133.7.42"),
		netsim.MustAddr("192.0.2.9"),
		netsim.MustAddr("192.0.2.200"),
		netsim.MustAddr("138.96.0.1"),
		netsim.MustAddr("8.8.8.8"),
	}
	fuzzPrefixes = []netip.Prefix{
		{}, // default
		netsim.MustPrefix("0.0.0.0/0"),
		netsim.MustPrefix("10.0.0.0/8"),
		netsim.MustPrefix("10.0.0.0/24"),
		netsim.MustPrefix("10.133.7.42/32"),
		netsim.MustPrefix("192.0.2.0/24"),
		netsim.MustPrefix("192.0.2.128/25"),
		netsim.MustPrefix("138.96.0.1/32"),
	}
)

// Fuzz opcodes. Each op reads its arguments as the following bytes.
const (
	opAddTable = iota
	opDelTable
	opAddRoute
	opDelRoute
	opAddRule
	opDelRule
	opDelRulesByTable
	opAddIface
	opRemoveIface
	opResolve
	numOps
)

// fuzzOps is a byte-coded op stream for FuzzResolveDifferential.
type fuzzOps []byte

func (o *fuzzOps) next() byte {
	if len(*o) == 0 {
		return 0
	}
	b := (*o)[0]
	*o = (*o)[1:]
	return b
}

func pick[T any](o *fuzzOps, set []T) T { return set[int(o.next())%len(set)] }

func (o *fuzzOps) route() Route {
	return Route{Dst: pick(o, fuzzPrefixes), Iface: pick(o, fuzzIfaces), Metric: int(o.next() % 4)}
}

func (o *fuzzOps) rule() Rule {
	var iif string
	if b := o.next() % 4; b > 0 {
		iif = fuzzIfaces[b-1]
	}
	return Rule{
		Priority: int(o.next() % 4 * 50),
		Fwmark:   pick(o, fuzzMarks),
		From:     pick(o, fuzzPrefixes),
		To:       pick(o, fuzzPrefixes),
		IIF:      iif,
		Table:    pick(o, fuzzTables),
	}
}

// FuzzResolveDifferential runs a random interleaving of every Router
// mutator, interface additions and removals on the node (a removed name
// may come back as a new *Iface) and Resolve calls on random packets,
// and checks each Resolve against referenceResolve. A mutator that
// changes routing state without moving a generation leaves Resolve on a
// stale table, which this catches.
func FuzzResolveDifferential(f *testing.F) {
	// The §2.3 rule set comes up and carries marked and unmarked
	// packets; ppp0 goes away and comes back as a new *Iface; then each
	// kind of change is undone and redone with a Resolve after it.
	section23 := []byte{
		opAddIface, 1, 3, // ppp0 at 10.133.7.42
		opAddTable, 1,
		opAddRoute, 1, 0, 1, 0, // default dev ppp0 table umts
		opAddRule, 0, 2, 1, 0, 7, 1, // fwmark 0x10 to 138.96.0.1 table umts
		opAddRule, 0, 2, 1, 4, 0, 1, // fwmark 0x10 from 10.133.7.42 table umts
		opAddRoute, 0, 0, 0, 0, // default dev eth0 table main
		opResolve, 1, 3, 6, 0, // marked, from the ppp0 address
		opResolve, 0, 1, 6, 0, // unmarked
		opResolve, 1, 0, 6, 1, // marked, no source yet, arriving on eth0
		opRemoveIface, 1,
		opResolve, 1, 0, 6, 0,
		opAddIface, 1, 3,
		opResolve, 1, 0, 6, 0,
		opDelRulesByTable, 1,
		opResolve, 1, 0, 6, 0,
		opAddRule, 0, 2, 1, 0, 7, 1,
		opResolve, 1, 0, 6, 0,
		opDelTable, 1,
		opResolve, 1, 0, 6, 0,
		opAddRoute, 1, 0, 1, 0,
		opResolve, 1, 0, 6, 0,
		opDelRoute, 1, 0,
		opResolve, 1, 0, 6, 0,
	}
	f.Add(section23)
	f.Add([]byte{
		opAddRoute, 0, 3, 1, 1, opAddRoute, 0, 3, 0, 0, opAddRoute, 0, 2, 2, 0,
		opResolve, 0, 0, 2, 0, opRemoveIface, 0, opResolve, 0, 0, 2, 0,
		opAddIface, 0, 1, opResolve, 0, 0, 2, 0, opDelRule, 0, opResolve, 0, 0, 2, 0,
	})
	f.Fuzz(func(t *testing.T, in []byte) {
		ops := fuzzOps(in)
		loop := sim.NewLoop(1)
		n := netsim.NewNode(loop, "host")
		n.AddIface("eth0", netsim.MustAddr("10.0.0.1"), netsim.MustPrefix("10.0.0.0/24"))
		r := New(n)
		for step := 0; len(ops) > 0; step++ {
			switch ops.next() % numOps {
			case opAddTable:
				r.AddTable(pick(&ops, fuzzTables))
			case opDelTable:
				r.DelTable(pick(&ops, fuzzTables))
			case opAddRoute:
				r.AddRoute(pick(&ops, fuzzTables), ops.route())
			case opDelRoute:
				// Delete an installed route when there is one, so that
				// deletions hit more often than random routes would.
				table := pick(&ops, fuzzTables)
				routes := r.Routes(table)
				if i := int(ops.next()); i < len(routes) {
					r.DelRoute(table, routes[i])
				} else {
					r.DelRoute(table, ops.route())
				}
			case opAddRule:
				r.AddRule(ops.rule())
			case opDelRule:
				rules := r.Rules()
				if i := int(ops.next()); i < len(rules) {
					r.DelRule(rules[i])
				} else {
					r.DelRule(ops.rule())
				}
			case opDelRulesByTable:
				r.DelRulesByTable(pick(&ops, fuzzTables))
			case opAddIface:
				name := pick(&ops, fuzzIfaces)
				if n.Iface(name) == nil {
					n.AddIface(name, pick(&ops, fuzzAddrs), netip.Prefix{})
				}
			case opRemoveIface:
				n.RemoveIface(pick(&ops, fuzzIfaces))
			case opResolve:
				pkt := &netsim.Packet{
					Mark: pick(&ops, fuzzMarks), Src: pick(&ops, fuzzAddrs), Dst: pick(&ops, fuzzAddrs),
					Proto: netsim.ProtoUDP,
				}
				if b := ops.next() % 3; b > 0 {
					pkt.InIface = fuzzIfaces[b-1]
				}
				want, wantErr := referenceResolve(r, pkt)
				got, err := r.Resolve(pkt)
				if got != want || err != wantErr {
					t.Fatalf("step %d: Resolve(mark %#x %v -> %v iif %q) = %v %q, %v; rule walk gives %v %q, %v\n%s",
						step, pkt.Mark, pkt.Src, pkt.Dst, pkt.InIface, got.Iface, got.Table, err,
						want.Iface, want.Table, wantErr, r.Dump())
				}
			}
		}
	})
}

// TestResolveSteadyStateNoAlloc pins Resolve at zero allocations once
// the table is compiled, including a matching rule whose table does not
// exist (the rule walk's Lookup builds an error there) and a route whose
// interface is absent.
func TestResolveSteadyStateNoAlloc(t *testing.T) {
	n, r := newTestRouter(t)
	n.Iface("ppp0").Peer = netsim.MustAddr("10.133.0.1")
	r.InstallConnected()
	r.DefaultVia("eth0", netsim.MustAddr("10.0.0.254"))
	r.AddRule(Rule{Priority: 10, Fwmark: 0x10, Table: "missing"})
	r.AddRoute("wifi", Route{Iface: "wlan0"})
	r.AddRule(Rule{Priority: 20, Fwmark: 0x10, Table: "wifi"})
	r.AddRoute("umts", Route{Iface: "ppp0"})
	r.AddRule(Rule{Priority: 100, Fwmark: 0x10, To: netsim.MustPrefix("192.0.2.9/32"), Table: "umts"})
	r.AddRule(Rule{Priority: 100, Fwmark: 0x10, From: netsim.MustPrefix("10.133.7.42/32"), Table: "umts"})
	marked := pkt("192.0.2.9")
	marked.Mark = 0x10
	unmarked := pkt("192.0.2.9")
	for _, c := range []struct {
		pkt   *netsim.Packet
		table string
	}{{marked, "umts"}, {unmarked, TableMain}} {
		if res, err := r.Resolve(c.pkt); err != nil || res.Table != c.table {
			t.Fatalf("mark %#x: table %q, %v; want %q", c.pkt.Mark, res.Table, err, c.table)
		}
		if a := testing.AllocsPerRun(100, func() { r.Resolve(c.pkt) }); a != 0 {
			t.Errorf("mark %#x: Resolve allocates %v times per packet, want 0", c.pkt.Mark, a)
		}
	}
}

// TestResolveFollowsReaddedIface pins the interface generation: an
// interface removed and added again under the same name is a new
// *Iface, and Resolve must pick it up with no routing change at all.
func TestResolveFollowsReaddedIface(t *testing.T) {
	n, r := newTestRouter(t)
	r.AddRoute(TableMain, Route{Iface: "ppp0"})
	old := n.Iface("ppp0")
	if res, err := r.Resolve(pkt("8.8.8.8")); err != nil || res.Iface != old {
		t.Fatalf("before: %v, %v", res.Iface, err)
	}
	n.RemoveIface("ppp0")
	if _, err := r.Resolve(pkt("8.8.8.8")); err != netsim.ErrNoRoute {
		t.Fatalf("route via a removed interface: err = %v, want ErrNoRoute", err)
	}
	fresh := n.AddIface("ppp0", netsim.MustAddr("10.133.7.43"), netip.Prefix{})
	if res, err := r.Resolve(pkt("8.8.8.8")); err != nil || res.Iface != fresh {
		t.Fatalf("after re-add: got %p, %v; want the new ppp0 %p", res.Iface, err, fresh)
	}
}
