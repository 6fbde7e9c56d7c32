package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// checkQuantileBound asserts the guarantee of s, built with relative
// error a, for one query: the estimate must be within relative error a
// of an order statistic adjacent to the exact rank (rank quantization
// moves the target by at most one position on either side of the
// interpolation anchors).
func checkQuantileBound(t *testing.T, s *QuantileSketch, a float64, samples []float64, p float64) {
	t.Helper()
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	n := len(sorted)
	h := p / 100 * float64(n-1)
	lo := int(math.Floor(h)) - 1
	if lo < 0 {
		lo = 0
	}
	hi := int(math.Ceil(h)) + 1
	if hi > n-1 {
		hi = n - 1
	}
	got := s.Quantile(p)
	lower := (1 - a) * sorted[lo]
	upper := (1 + a) * sorted[hi]
	if sorted[lo] < 0 {
		lower = (1 + a) * sorted[lo]
	}
	// Tiny slack for the float64 log/pow round trip at bucket edges.
	const eps = 1e-9
	if got < lower*(1-eps)-eps || got > upper*(1+eps)+eps {
		t.Errorf("Quantile(%v) = %v outside [%v, %v] (exact %v, n=%d)",
			p, got, lower, upper, percentileSorted(sorted, p), n)
	}
}

func TestQuantileSketchBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dists := map[string]func() float64{
		// Nanosecond-scale delays: wide dynamic range.
		"uniform":     func() float64 { return 1e3 + rng.Float64()*5e9 },
		"exponential": func() float64 { return rng.ExpFloat64() * 40e6 },
		"bimodal": func() float64 {
			if rng.Intn(2) == 0 {
				return 2e6 + rng.Float64()*1e5
			}
			return 3.5e9 + rng.Float64()*1e8
		},
		"constant": func() float64 { return 123456789 },
	}
	for name, draw := range dists {
		t.Run(name, func(t *testing.T) {
			s := NewQuantileSketch(0.01)
			samples := make([]float64, 0, 20000)
			for i := 0; i < 20000; i++ {
				v := draw()
				samples = append(samples, v)
				s.Add(v)
			}
			if s.Count() != 20000 {
				t.Fatalf("Count = %d, want 20000", s.Count())
			}
			for _, p := range []float64{1, 10, 25, 50, 75, 90, 95, 99, 99.9} {
				checkQuantileBound(t, s, 0.01, samples, p)
			}
		})
	}
}

func TestQuantileSketchExtremesAndEmpty(t *testing.T) {
	s := NewQuantileSketch(0.02)
	if !math.IsNaN(s.Quantile(50)) {
		t.Errorf("empty sketch Quantile = %v, want NaN", s.Quantile(50))
	}
	for _, v := range []float64{7e6, 3e6, 9e6} {
		s.Add(v)
	}
	if got := s.Quantile(0); got != 3e6 {
		t.Errorf("Quantile(0) = %v, want exact min 3e6", got)
	}
	if got := s.Quantile(100); got != 9e6 {
		t.Errorf("Quantile(100) = %v, want exact max 9e6", got)
	}
}

func TestQuantileSketchLowBucket(t *testing.T) {
	// Zero delays (and sub-cutoff values) carry no relative-error
	// bound; the sketch reports the tracked minimum for ranks in that
	// mass instead of degrading neighbouring buckets.
	s := NewQuantileSketch(0.01)
	for i := 0; i < 90; i++ {
		s.Add(0)
	}
	for i := 0; i < 10; i++ {
		s.Add(1e6)
	}
	if got := s.Quantile(50); got != 0 {
		t.Errorf("Quantile(50) = %v, want 0 (low-bucket mass)", got)
	}
	if got, want := s.Quantile(99), 1e6; math.Abs(got-want) > 0.01*want {
		t.Errorf("Quantile(99) = %v, want ~%v", got, want)
	}
}

func TestQuantileSketchMemoryBoundedByRange(t *testing.T) {
	// Same dynamic range, 100x the samples: the footprint must not move.
	small := NewQuantileSketch(0.01)
	big := NewQuantileSketch(0.01)
	for i := 0; i < 1000; i++ {
		small.Add(1e3 + float64(i%100)*1e7)
	}
	for i := 0; i < 100000; i++ {
		big.Add(1e3 + float64(i%100)*1e7)
	}
	if small.RetainedBytes() != big.RetainedBytes() {
		t.Errorf("footprint grew with sample count: %d bytes at n=1000 vs %d at n=100000",
			small.RetainedBytes(), big.RetainedBytes())
	}
	// 1 ns .. 10 s at 1% is ~1200 buckets; anything near sample count
	// would mean the sketch degenerated into a sample store.
	if rb := big.RetainedBytes(); rb > 32*1024 {
		t.Errorf("RetainedBytes = %d, want a bounded bucket array (<32 KiB)", rb)
	}
}

// TestQuantileSketchGrowsDownward: samples whose buckets sit below
// the sketch's offset force the dense array to grow downward and
// shift; every count must land in the right bucket afterwards.
func TestQuantileSketchGrowsDownward(t *testing.T) {
	s := NewQuantileSketch(0.01)
	var samples []float64
	for _, v := range []float64{1e6, 2e6, 4e6} { // high buckets first
		s.Add(v)
		samples = append(samples, v)
	}
	offsetBefore := s.offset
	for _, v := range []float64{1.5, 3, 6, 12} { // far below that range
		s.Add(v)
		samples = append(samples, v)
	}
	if s.offset >= offsetBefore {
		t.Fatalf("offset %d did not shift down from %d; the array should have grown downward", s.offset, offsetBefore)
	}
	if got, want := s.Count(), uint64(len(samples)); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	var bucketSum uint64
	for _, c := range s.buckets {
		bucketSum += c
	}
	if bucketSum != s.Count() {
		t.Errorf("bucket mass %d != count %d after offset shift", bucketSum, s.Count())
	}
	if s.Quantile(0) != 1.5 || s.Quantile(100) != 4e6 {
		t.Errorf("extremes = (%v, %v), want (1.5, 4e6)", s.Quantile(0), s.Quantile(100))
	}
	for _, p := range []float64{10, 50, 75, 95} {
		checkQuantileBound(t, s, 0.01, samples, p)
	}
}
