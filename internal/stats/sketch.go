package stats

import (
	"fmt"
	"math"
)

// QuantileSketch is a log-linear histogram sketch with a
// bounded relative error on quantile queries (the DDSketch idea): a
// positive sample v lands in bucket ceil(log_γ v) where
// γ = (1+α)/(1−α), and the bucket's representative value
// 2·γ^i/(γ+1) is within a factor (1±α) of every value the bucket can
// hold. Memory therefore grows with the dynamic range of the data
// (log_γ(max/min) buckets), not with the sample count — for one-way
// delays spanning 1 µs…10 s at α = 1 %, that is ~800 eight-byte
// buckets regardless of whether a million or a billion packets were
// observed.
//
// The guarantee: for a non-empty sketch, Quantile(p) returns a value
// within relative error α of some order statistic whose rank is
// adjacent to the exact rank ⌈p/100·n⌉. Samples ≤ smallest
// representable value (see sketchLowCutoff) are counted in a dedicated
// low bucket and reported as the tracked minimum, exact to within the
// cutoff. Quantile(0) and Quantile(100) return the exact tracked
// minimum and maximum.
//
// The zero value is not ready to use; construct with NewQuantileSketch.
type QuantileSketch struct {
	gamma       float64
	invLogGamma float64

	// buckets[j] counts samples in log bucket offset+j.
	buckets []uint64
	offset  int
	// low counts samples below the representable cutoff (including
	// zero and negative samples, for which no relative-error bound is
	// possible).
	low uint64

	n        uint64
	min, max float64
}

// DefaultSketchRelErr is the relative-error bound used when a
// non-positive α is requested: 1 %, comfortably inside what per-window
// QoS reporting needs while keeping the bucket array small.
const DefaultSketchRelErr = 0.01

// sketchLowCutoff is the smallest positive sample the log buckets
// represent. Delay and RTT samples are nanosecond counts ≥ 1, so in
// practice only genuine zero delays land in the low bucket.
const sketchLowCutoff = 1.0

// NewQuantileSketch returns an empty sketch with relative error bound
// relErr (0 < relErr < 1; non-positive values select
// DefaultSketchRelErr).
func NewQuantileSketch(relErr float64) *QuantileSketch {
	if relErr <= 0 {
		relErr = DefaultSketchRelErr
	}
	if relErr >= 1 {
		panic(fmt.Sprintf("stats: quantile sketch relative error %v out of range (0, 1)", relErr))
	}
	gamma := (1 + relErr) / (1 - relErr)
	return &QuantileSketch{
		gamma:       gamma,
		invLogGamma: 1 / math.Log(gamma),
	}
}

// Count returns the number of samples added.
func (s *QuantileSketch) Count() uint64 { return s.n }

// Add incorporates one sample.
func (s *QuantileSketch) Add(v float64) {
	if s.n == 0 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.n++
	if v < sketchLowCutoff {
		s.low++
		return
	}
	s.bump(s.index(v))
}

// index maps a representable sample to its log bucket.
func (s *QuantileSketch) index(v float64) int {
	return int(math.Ceil(math.Log(v) * s.invLogGamma))
}

// value returns bucket i's representative value, the midpoint that
// bounds the relative error at α on both sides.
func (s *QuantileSketch) value(i int) float64 {
	return 2 * math.Pow(s.gamma, float64(i)) / (s.gamma + 1)
}

// bump increments log bucket i, growing the dense array to cover it.
func (s *QuantileSketch) bump(i int) {
	if len(s.buckets) == 0 {
		s.buckets = make([]uint64, 1, 64)
		s.offset = i
	} else if i < s.offset {
		grown := make([]uint64, len(s.buckets)+(s.offset-i))
		copy(grown[s.offset-i:], s.buckets)
		s.buckets = grown
		s.offset = i
	} else if j := i - s.offset; j >= len(s.buckets) {
		for j >= len(s.buckets) {
			s.buckets = append(s.buckets, 0)
		}
	}
	s.buckets[i-s.offset]++
}

// Quantile returns the p-th percentile estimate (p in 0..100, matching
// Percentiles). An empty sketch yields NaN.
func (s *QuantileSketch) Quantile(p float64) float64 {
	if s.n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return s.min
	}
	if p >= 100 {
		return s.max
	}
	rank := uint64(math.Ceil(p / 100 * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.n {
		rank = s.n
	}
	cum := s.low
	if rank <= cum {
		// The rank falls in the sub-cutoff mass; every such sample is
		// within [min, cutoff), so the minimum is the honest estimate.
		return s.min
	}
	for j, c := range s.buckets {
		cum += c
		if cum >= rank {
			v := s.value(s.offset + j)
			// Clamping to the exact extrema never breaks the bound:
			// if the estimate overshoots max, the true value is within
			// α below max (and symmetrically for min).
			if v > s.max {
				v = s.max
			}
			if v < s.min {
				v = s.min
			}
			return v
		}
	}
	return s.max
}

// RetainedBytes reports the sketch's memory footprint: the bucket array
// plus the fixed header. This is the number the streaming decoder's
// O(windows + flows) accounting charges for each sketch.
func (s *QuantileSketch) RetainedBytes() int {
	const header = 96 // struct fields incl. slice header, rounded up
	return header + 8*cap(s.buckets)
}
