// Package stats provides the small statistical toolkit used by the
// traffic decoder and the experiment harness: running summaries
// (Welford), percentiles, and timestamped series with windowed views.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"
)

// Summary accumulates a running mean/variance/min/max (Welford's
// algorithm). The zero value is ready to use.
type Summary struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates a sample.
func (s *Summary) Add(v float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	d := v - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (v - s.mean)
}

// N returns the sample count.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (0 for an empty summary).
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest sample. An empty summary yields NaN, so "no
// samples" is distinguishable from a genuine 0 (and correct for
// all-negative series).
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest sample (NaN if empty, like Min).
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}

func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g max=%.4g", s.n, s.Mean(), s.Std(), s.Min(), s.Max())
}

// Percentiles returns the requested percentiles (0..100) of values,
// by linear interpolation between order statistics. values need not be
// sorted and is not modified: it works on a copy (see SelectPercentiles
// to skip the copy). An empty input yields NaN for every requested
// percentile.
func Percentiles(values []float64, ps ...float64) []float64 {
	return SelectPercentiles(append([]float64(nil), values...), ps...)
}

// SelectPercentiles returns the same percentiles as Percentiles, bit for
// bit, without copying or sorting: it reorders values in place and
// places only the order statistics the interpolation reads (expected
// O(n) per requested percentile instead of one O(n log n) sort). Values
// order as sort.Float64s orders them (NaN first). An empty input yields
// NaN for every requested percentile.
func SelectPercentiles(values []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	n := len(values)
	if n == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	// Visit the requests by ascending rank: once rank k and its
	// neighbour are placed, every later rank lies in values[from:], so
	// each selection only partitions what the previous ones left.
	order := make([]int, len(ps))
	for i := range order {
		order[i] = i
		for j := i; j > 0 && ps[order[j]] < ps[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	from := 0
	for _, i := range order {
		lo, hi, frac := rankOf(ps[i], n)
		if lo >= from {
			selectRank(values[from:], lo-from)
			from = lo + 1
		}
		if hi >= from {
			// values[hi:] holds everything above rank lo: its minimum
			// is rank hi.
			m := hi
			for j := hi + 1; j < n; j++ {
				if less(values[j], values[m]) {
					m = j
				}
			}
			values[hi], values[m] = values[m], values[hi]
			from = hi + 1
		}
		out[i] = interpolate(values[lo], values[hi], frac)
	}
	return out
}

// rankOf maps the p-th percentile of n sorted values to the two ranks
// it interpolates between and the weight of the upper one.
func rankOf(p float64, n int) (lo, hi int, frac float64) {
	if p <= 0 {
		return 0, 0, 0
	}
	if p >= 100 {
		return n - 1, n - 1, 0
	}
	rank := p / 100 * float64(n-1)
	lo = int(math.Floor(rank))
	hi = int(math.Ceil(rank))
	return lo, hi, rank - float64(lo)
}

// interpolate is the one place the percentile arithmetic happens, so
// the selected path and the tests' sorted reference round identically.
func interpolate(lo, hi, frac float64) float64 {
	if frac == 0 {
		return lo
	}
	return lo*(1-frac) + hi*frac
}

// less is sort.Float64s' order: NaN before every number.
func less(a, b float64) bool { return a < b || (a != a && b == b) }

// selectRank reorders v so that v[k] holds the value sort.Float64s
// would put there, with nothing greater before it and nothing smaller
// after it. It is quickselect with a median-of-three pivot and a
// three-way partition (duplicate-heavy input stays linear); after
// 2·log2(n) rounds without converging it sorts the remaining range, so
// the worst case is O(n log n).
func selectRank(v []float64, k int) {
	lo, hi := 0, len(v)-1
	for budget := 2 * bits.Len(uint(len(v))); lo < hi; budget-- {
		if budget == 0 {
			sort.Float64s(v[lo : hi+1])
			return
		}
		pivot := median3(v[lo], v[lo+(hi-lo)/2], v[hi])
		// v[lo:lt] < pivot, v[lt:i] == pivot, v[gt+1:hi+1] > pivot.
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch x := v[i]; {
			case less(x, pivot):
				v[lt], v[i] = x, v[lt]
				lt++
				i++
			case less(pivot, x):
				v[i], v[gt] = v[gt], x
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return
		}
	}
}

func median3(a, b, c float64) float64 {
	if less(b, a) {
		a, b = b, a
	}
	if less(c, b) {
		b = c
		if less(b, a) {
			b = a
		}
	}
	return b
}

// Point is one timestamped sample of a series.
type Point struct {
	T time.Duration
	V float64
}

// Series is a time-ordered sequence of samples (one per window in the
// decoder's output).
type Series []Point

// Summarize computes a Summary over the series values.
func (s Series) Summarize() Summary {
	var sum Summary
	for _, p := range s {
		sum.Add(p.V)
	}
	return sum
}

// Mean returns the mean value of the series.
func (s Series) Mean() float64 { sum := s.Summarize(); return sum.Mean() }

// Max returns the maximum value of the series.
func (s Series) Max() float64 { sum := s.Summarize(); return sum.Max() }

// Min returns the minimum value of the series.
func (s Series) Min() float64 { sum := s.Summarize(); return sum.Min() }

// After returns the sub-series with T >= t (for "after the adaptation
// knee" comparisons).
func (s Series) After(t time.Duration) Series {
	for i, p := range s {
		if p.T >= t {
			return s[i:]
		}
	}
	return nil
}

// Before returns the sub-series with T < t.
func (s Series) Before(t time.Duration) Series {
	for i, p := range s {
		if p.T >= t {
			return s[:i]
		}
	}
	return s
}
