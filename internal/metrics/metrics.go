// Package metrics is the simulation's observability layer: a
// lightweight, allocation-conscious registry of counters, gauges, and
// fixed-bucket histograms.
//
// One Registry belongs to one sim.Loop; model code grabs its instruments
// once at setup (Registry.Counter et al., which allocate) and bumps them
// on the hot path with plain field updates — no locks, no maps, no
// interface dispatch. The registry is single-threaded by construction,
// exactly like the loop it belongs to: parallel experiment repetitions
// each own a private Loop and therefore a private Registry.
//
// Snapshot freezes every instrument into a JSON-marshalable value with
// deterministic (sorted) iteration order, which the testbed asserts
// against and cmd/experiments dumps with -metrics.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Counter is a monotonically increasing count of events.
type Counter struct {
	v int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n (n must be non-negative for the counter to stay monotone;
// this is not checked on the hot path).
func (c *Counter) Add(n int64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Gauge is an instantaneous value; it also tracks the maximum it was
// ever set to, so peaks (queue depth, heap size) survive into the
// snapshot without a histogram.
type Gauge struct {
	v    float64
	max  float64
	seen bool
}

// Set records the current value and updates the tracked maximum.
func (g *Gauge) Set(v float64) {
	g.v = v
	if !g.seen || v > g.max {
		g.max = v
		g.seen = true
	}
}

// Add adjusts the current value by d (negative deltas allowed).
func (g *Gauge) Add(d float64) { g.Set(g.v + d) }

// Value returns the last set value.
func (g *Gauge) Value() float64 { return g.v }

// Max returns the largest value ever set (0 if never set).
func (g *Gauge) Max() float64 { return g.max }

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with 2^(i-1) < v <= 2^i (bucket 0 counts v <= 1).
// 64 buckets cover the full non-negative int64 range.
const histBuckets = 64

// Histogram is a fixed-bucket power-of-two histogram for durations and
// sizes. Observing is one shift, one compare, and two adds — cheap
// enough for per-packet paths.
type Histogram struct {
	counts [histBuckets]int64
	sum    int64
	n      int64
}

// Observe records one sample. Negative samples are clamped to bucket 0.
func (h *Histogram) Observe(v int64) {
	i := 0
	if v > 1 {
		i = bits.Len64(uint64(v - 1)) // ceil(log2(v))
		if i >= histBuckets {
			i = histBuckets - 1
		}
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n }

// Sum returns the total of all observations.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the mean observation (NaN if empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return float64(h.sum) / float64(h.n)
}

// Registry holds one simulation's instruments by name. Names are
// slash-separated paths ("umts/ul/queue_drops"); per-entity instruments
// embed the entity name ("netsim/link/napoli-grn/tx_packets").
type Registry struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Call once
// at setup and keep the pointer; the lookup allocates on first use.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if h, ok := r.histograms[name]; ok {
		return h
	}
	h := &Histogram{}
	r.histograms[name] = h
	return h
}

// GaugeSnapshot carries a gauge's final and peak values.
type GaugeSnapshot struct {
	Value float64 `json:"value"`
	Max   float64 `json:"max"`
}

// HistogramSnapshot carries a histogram's totals and its non-empty
// buckets keyed by upper bound ("le_2^i" as a decimal string).
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// Snapshot is a frozen registry: plain maps, ready for JSON or test
// assertions. Map iteration order is not deterministic, but encoding/json
// sorts keys and String() sorts explicitly, so rendered output is stable.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot freezes the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]GaugeSnapshot, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.v
	}
	for name, g := range r.gauges {
		s.Gauges[name] = GaugeSnapshot{Value: g.v, Max: g.max}
	}
	for name, h := range r.histograms {
		hs := HistogramSnapshot{Count: h.n, Sum: h.sum}
		for i, n := range h.counts {
			if n == 0 {
				continue
			}
			if hs.Buckets == nil {
				hs.Buckets = make(map[string]int64)
			}
			hs.Buckets[bucketLabel(i)] = n
		}
		s.Histograms[name] = hs
	}
	return s
}

// bucketLabel renders bucket i's inclusive upper bound 2^i.
func bucketLabel(i int) string {
	if i >= 63 {
		return "le_inf"
	}
	return fmt.Sprintf("le_%d", int64(1)<<uint(i))
}

// Counter returns a counter's value from the snapshot (0 if absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns a gauge's snapshot (the zero GaugeSnapshot if absent).
func (s Snapshot) Gauge(name string) GaugeSnapshot { return s.Gauges[name] }

// Histogram returns a histogram's snapshot (the zero HistogramSnapshot
// if absent).
func (s Snapshot) Histogram(name string) HistogramSnapshot { return s.Histograms[name] }

// GaugeSum totals the current values of every gauge whose name matches
// prefix and suffix — e.g. GaugeSum("itg/stream/", "/retained_bytes")
// totals the per-flow streaming-decoder footprints, which is meaningful
// on merged multi-shard snapshots because each per-flow gauge is set
// exactly once and MergeSnapshots sums gauge values.
func (s Snapshot) GaugeSum(prefix, suffix string) float64 {
	var total float64
	for name, g := range s.Gauges {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			total += g.Value
		}
	}
	return total
}

// CounterSum totals every counter whose name matches prefix up to a
// slash boundary with suffix after it — e.g. CounterSum("netsim/link/",
// "/tx_packets") aggregates the per-link transmit counters.
func (s Snapshot) CounterSum(prefix, suffix string) int64 {
	var total int64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			total += v
		}
	}
	return total
}

// String renders the snapshot as sorted "name value" lines — a compact
// deterministic form for traces and golden tests.
func (s Snapshot) String() string {
	var lines []string
	for name, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("counter %s %d", name, v))
	}
	for name, g := range s.Gauges {
		lines = append(lines, fmt.Sprintf("gauge %s %g max=%g", name, g.Value, g.Max))
	}
	for name, h := range s.Histograms {
		lines = append(lines, fmt.Sprintf("histogram %s n=%d sum=%d", name, h.Count, h.Sum))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
