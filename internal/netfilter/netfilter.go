// Package netfilter reimplements the subset of iptables that the paper's
// slice-isolation scheme uses: the mangle table's OUTPUT chain (to MARK
// packets of the UMTS slice, exploiting the VNET+ per-slice attribution)
// and the filter table's POSTROUTING/OUTPUT evaluation (to DROP packets of
// other slices that are about to leave via the UMTS interface).
//
// Rules have match criteria and a target; chains have a default policy;
// per-rule packet/byte counters support `iptables -L -v`-style inspection.
package netfilter

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"

	"github.com/onelab/umtslab/internal/netsim"
)

// Table names. Unlike Linux, the filter table here also hooks
// POSTROUTING, which stands in for the kernel's
// "filter/OUTPUT after rerouting" placement the paper relies on to stop
// foreign-slice packets bound for the UMTS interface.
const (
	TableMangle = "mangle"
	TableFilter = "filter"
)

// Chain names (hook points).
const (
	ChainOutput      = "OUTPUT"
	ChainPostRouting = "POSTROUTING"
	ChainPreRouting  = "PREROUTING"
	ChainInput       = "INPUT"
	ChainForward     = "FORWARD"
)

// Target is a rule action.
type Target int

// Rule targets.
const (
	TargetAccept Target = iota // stop traversal of this chain, accept
	TargetDrop                 // discard the packet
	TargetMark                 // set pkt.Mark = MarkValue, continue chain
	TargetReturn               // stop traversal, fall back to chain policy
)

func (t Target) String() string {
	switch t {
	case TargetAccept:
		return "ACCEPT"
	case TargetDrop:
		return "DROP"
	case TargetMark:
		return "MARK"
	case TargetReturn:
		return "RETURN"
	default:
		return fmt.Sprintf("target(%d)", int(t))
	}
}

// Match is the set of criteria a rule requires; zero-valued fields match
// anything.
type Match struct {
	Proto    netsim.Proto
	Src, Dst netip.Prefix
	SrcPort  uint16
	DstPort  uint16
	InIface  string
	OutIface string
	// Mark matches pkt.Mark when MarkSet is true (so mark 0 is matchable).
	Mark    uint32
	MarkSet bool
	// SliceCtx matches the VNET+ slice attribution when SliceSet is true.
	SliceCtx uint32
	SliceSet bool
	// Invert flips the final match result ("!" semantics applied to the
	// whole match, sufficient for the paper's single-criterion inverts).
	Invert bool
}

func (m Match) matches(pkt *netsim.Packet, out *netsim.Iface) bool {
	ok := m.matchesDirect(pkt, out)
	if m.Invert {
		return !ok
	}
	return ok
}

func (m Match) matchesDirect(pkt *netsim.Packet, out *netsim.Iface) bool {
	if m.Proto != 0 && pkt.Proto != m.Proto {
		return false
	}
	if m.Src.IsValid() && !(pkt.Src.IsValid() && m.Src.Contains(pkt.Src)) {
		return false
	}
	if m.Dst.IsValid() && !m.Dst.Contains(pkt.Dst) {
		return false
	}
	if m.SrcPort != 0 && pkt.SrcPort != m.SrcPort {
		return false
	}
	if m.DstPort != 0 && pkt.DstPort != m.DstPort {
		return false
	}
	if m.InIface != "" && pkt.InIface != m.InIface {
		return false
	}
	if m.OutIface != "" && (out == nil || out.Name != m.OutIface) {
		return false
	}
	if m.MarkSet && pkt.Mark != m.Mark {
		return false
	}
	if m.SliceSet && pkt.SliceCtx != m.SliceCtx {
		return false
	}
	return true
}

func (m Match) String() string {
	var parts []string
	if m.Proto != 0 {
		parts = append(parts, "-p "+m.Proto.String())
	}
	if m.Src.IsValid() {
		parts = append(parts, "-s "+m.Src.String())
	}
	if m.Dst.IsValid() {
		parts = append(parts, "-d "+m.Dst.String())
	}
	if m.SrcPort != 0 {
		parts = append(parts, fmt.Sprintf("--sport %d", m.SrcPort))
	}
	if m.DstPort != 0 {
		parts = append(parts, fmt.Sprintf("--dport %d", m.DstPort))
	}
	if m.InIface != "" {
		parts = append(parts, "-i "+m.InIface)
	}
	if m.OutIface != "" {
		parts = append(parts, "-o "+m.OutIface)
	}
	if m.MarkSet {
		parts = append(parts, fmt.Sprintf("-m mark --mark %#x", m.Mark))
	}
	if m.SliceSet {
		parts = append(parts, fmt.Sprintf("-m slice --ctx %d", m.SliceCtx))
	}
	s := strings.Join(parts, " ")
	if m.Invert {
		s = "! ( " + s + " )"
	}
	return s
}

// Rule is one chain entry.
type Rule struct {
	Match     Match
	Target    Target
	MarkValue uint32 // for TargetMark
	Comment   string

	// Counters (read via Chain dumps).
	Packets uint64
	Bytes   uint64
}

func (r Rule) String() string {
	s := r.Match.String()
	if s != "" {
		s += " "
	}
	s += "-j " + r.Target.String()
	if r.Target == TargetMark {
		s += fmt.Sprintf(" --set-mark %#x", r.MarkValue)
	}
	if r.Comment != "" {
		s += " /* " + r.Comment + " */"
	}
	return s
}

type chainKey struct{ table, chain string }

// Errors returned by Stack operations.
var (
	ErrNoSuchChain = errors.New("netfilter: no such chain")
	ErrNoSuchRule  = errors.New("netfilter: no such rule")
)

// Stack holds all tables/chains of one node and wires itself into the
// node's hook slots.
type Stack struct {
	node *netsim.Node
	// chains maps each built-in chain to its rule list. The values are
	// pointers so the node hooks can capture their chains once in New
	// and see every later Append/Insert/Delete without a per-packet
	// lookup.
	chains map[chainKey]*[]*Rule
	// DroppedTotal counts packets dropped by any DROP rule.
	DroppedTotal uint64
}

// New creates the stack with the standard chains (empty, policy ACCEPT)
// and installs the hook functions on the node.
func New(node *netsim.Node) *Stack {
	s := &Stack{node: node, chains: make(map[chainKey]*[]*Rule)}
	builtin := func(table, chain string) *[]*Rule {
		rules := new([]*Rule)
		s.chains[chainKey{table, chain}] = rules
		return rules
	}
	var (
		mangleOut  = builtin(TableMangle, ChainOutput)
		manglePre  = builtin(TableMangle, ChainPreRouting)
		manglePost = builtin(TableMangle, ChainPostRouting)
		filterOut  = builtin(TableFilter, ChainOutput)
		filterIn   = builtin(TableFilter, ChainInput)
		filterFwd  = builtin(TableFilter, ChainForward)
		filterPost = builtin(TableFilter, ChainPostRouting)
	)
	node.Hooks.Output = func(pkt *netsim.Packet, out *netsim.Iface) netsim.Verdict {
		if s.traverse(*mangleOut, pkt, out) == netsim.VerdictDrop {
			return netsim.VerdictDrop
		}
		return s.traverse(*filterOut, pkt, out)
	}
	node.Hooks.PostRouting = func(pkt *netsim.Packet, out *netsim.Iface) netsim.Verdict {
		if s.traverse(*manglePost, pkt, out) == netsim.VerdictDrop {
			return netsim.VerdictDrop
		}
		return s.traverse(*filterPost, pkt, out)
	}
	node.Hooks.PreRouting = func(pkt *netsim.Packet, out *netsim.Iface) netsim.Verdict {
		return s.traverse(*manglePre, pkt, out)
	}
	node.Hooks.Input = func(pkt *netsim.Packet, out *netsim.Iface) netsim.Verdict {
		return s.traverse(*filterIn, pkt, out)
	}
	node.Hooks.Forward = func(pkt *netsim.Packet, out *netsim.Iface) netsim.Verdict {
		return s.traverse(*filterFwd, pkt, out)
	}
	return s
}

func (s *Stack) chain(table, chain string) (*[]*Rule, error) {
	rules, ok := s.chains[chainKey{table, chain}]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNoSuchChain, table, chain)
	}
	return rules, nil
}

// Append adds a rule at the end of a chain (iptables -A) and returns the
// rule pointer for counter inspection.
func (s *Stack) Append(table, chain string, r Rule) (*Rule, error) {
	rules, err := s.chain(table, chain)
	if err != nil {
		return nil, err
	}
	rp := &r
	*rules = append(*rules, rp)
	return rp, nil
}

// Insert adds a rule at the head of a chain (iptables -I).
func (s *Stack) Insert(table, chain string, r Rule) (*Rule, error) {
	rules, err := s.chain(table, chain)
	if err != nil {
		return nil, err
	}
	rp := &r
	*rules = append([]*Rule{rp}, *rules...)
	return rp, nil
}

// Delete removes a previously added rule by pointer (iptables -D with an
// exact handle).
func (s *Stack) Delete(table, chain string, rp *Rule) error {
	rules, err := s.chain(table, chain)
	if err != nil {
		return err
	}
	for i, r := range *rules {
		if r == rp {
			*rules = append((*rules)[:i], (*rules)[i+1:]...)
			return nil
		}
	}
	return ErrNoSuchRule
}

// DeleteByComment removes every rule whose comment equals c across all
// chains, returning how many were removed. The umts backend tags all its
// rules with the slice name so teardown is a single call.
func (s *Stack) DeleteByComment(c string) int {
	removed := 0
	for _, rules := range s.chains {
		kept := (*rules)[:0]
		for _, r := range *rules {
			if r.Comment == c {
				removed++
				continue
			}
			kept = append(kept, r)
		}
		*rules = kept
	}
	return removed
}

// Rules returns the chain contents in evaluation order.
func (s *Stack) Rules(table, chain string) []*Rule {
	rules, err := s.chain(table, chain)
	if err != nil {
		return nil
	}
	return append([]*Rule(nil), *rules...)
}

// Traverse evaluates a chain against a packet and returns the verdict
// (chain policy is ACCEPT).
func (s *Stack) Traverse(table, chain string, pkt *netsim.Packet, out *netsim.Iface) netsim.Verdict {
	rules, err := s.chain(table, chain)
	if err != nil {
		return netsim.VerdictAccept
	}
	return s.traverse(*rules, pkt, out)
}

func (s *Stack) traverse(rules []*Rule, pkt *netsim.Packet, out *netsim.Iface) netsim.Verdict {
	for _, r := range rules {
		if !r.Match.matches(pkt, out) {
			continue
		}
		r.Packets++
		r.Bytes += uint64(pkt.Length())
		switch r.Target {
		case TargetAccept:
			return netsim.VerdictAccept
		case TargetDrop:
			s.DroppedTotal++
			return netsim.VerdictDrop
		case TargetMark:
			pkt.Mark = r.MarkValue
			// continue traversal, like xtables MARK
		case TargetReturn:
			return netsim.VerdictAccept
		}
	}
	return netsim.VerdictAccept
}

// Dump renders all non-empty chains like `iptables-save`.
func (s *Stack) Dump() string {
	var b strings.Builder
	for _, table := range []string{TableMangle, TableFilter} {
		for _, chain := range []string{ChainPreRouting, ChainInput, ChainForward, ChainOutput, ChainPostRouting} {
			rules, err := s.chain(table, chain)
			if err != nil || len(*rules) == 0 {
				continue
			}
			fmt.Fprintf(&b, "*%s :%s\n", table, chain)
			for _, r := range *rules {
				fmt.Fprintf(&b, "  [%d:%d] %s\n", r.Packets, r.Bytes, r)
			}
		}
	}
	return b.String()
}
