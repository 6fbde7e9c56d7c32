package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", s.Mean())
	}
	// Population std is 2; sample std = sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.Std()-want) > 1e-12 {
		t.Fatalf("Std = %v, want %v", s.Std(), want)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Std() != 0 || s.N() != 0 {
		t.Fatal("empty summary mean/std/n should be zero")
	}
	// Min/Max of an empty summary are NaN: "no samples" must be
	// distinguishable from a genuine 0.
	if !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) {
		t.Fatalf("empty summary Min/Max = (%v, %v), want NaN", s.Min(), s.Max())
	}
}

func TestSummarySingle(t *testing.T) {
	var s Summary
	s.Add(42)
	if s.Mean() != 42 || s.Std() != 0 || s.Min() != 42 || s.Max() != 42 {
		t.Fatalf("single-sample summary wrong: %s", s.String())
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {90, 9.1},
	}
	for _, c := range cases {
		if got := Percentile(vals, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileEdge(t *testing.T) {
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
	if Percentile([]float64{7}, 99) != 7 {
		t.Fatal("singleton percentile")
	}
	// Input must not be mutated.
	in := []float64{3, 1, 2}
	Percentile(in, 50)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestSeriesOps(t *testing.T) {
	s := Series{
		{T: 0, V: 10}, {T: time.Second, V: 20}, {T: 2 * time.Second, V: 30},
	}
	if s.Mean() != 20 || s.Min() != 10 || s.Max() != 30 {
		t.Fatalf("series stats wrong: %v %v %v", s.Mean(), s.Min(), s.Max())
	}
	after := s.After(time.Second)
	if len(after) != 2 || after[0].V != 20 {
		t.Fatalf("After = %v", after)
	}
	before := s.Before(time.Second)
	if len(before) != 1 || before[0].V != 10 {
		t.Fatalf("Before = %v", before)
	}
	if len(s.After(time.Hour)) != 0 {
		t.Fatal("After far future should be empty")
	}
	if len(s.Before(time.Hour)) != 3 {
		t.Fatal("Before far future should be everything")
	}
	vals := s.Values()
	if len(vals) != 3 || vals[2] != 30 {
		t.Fatalf("Values = %v", vals)
	}
}

// Property: Summary mean/min/max agree with direct computation.
func TestPropertySummaryAgreesWithDirect(t *testing.T) {
	f := func(vals []float64) bool {
		clean := vals[:0]
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e9 {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		var s Summary
		sum, mn, mx := 0.0, clean[0], clean[0]
		for _, v := range clean {
			s.Add(v)
			sum += v
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		mean := sum / float64(len(clean))
		return math.Abs(s.Mean()-mean) < 1e-6*(1+math.Abs(mean)) && s.Min() == mn && s.Max() == mx
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(vals []float64, a, b uint8) bool {
		clean := vals[:0]
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		va, vb := Percentile(clean, pa), Percentile(clean, pb)
		lo, hi := Percentile(clean, 0), Percentile(clean, 100)
		return va <= vb && va >= lo && vb <= hi
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEmptySummaryMinMaxNaN(t *testing.T) {
	var s Summary
	if !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) {
		t.Fatalf("empty summary Min/Max = (%v, %v), want NaN", s.Min(), s.Max())
	}
	// All-negative series must report a negative max, not 0.
	s.Add(-5)
	s.Add(-2)
	if s.Min() != -5 || s.Max() != -2 {
		t.Fatalf("negative series Min/Max = (%v, %v), want (-5, -2)", s.Min(), s.Max())
	}
}

func TestPercentilesMatchesPercentile(t *testing.T) {
	vals := []float64{9, 1, 7, 3, 5, 2, 8, 4, 6, 10}
	ps := []float64{0, 25, 50, 90, 100}
	got := Percentiles(vals, ps...)
	for i, p := range ps {
		if want := Percentile(vals, p); math.Abs(got[i]-want) > 1e-12 {
			t.Errorf("Percentiles P%v = %v, want %v", p, got[i], want)
		}
	}
	// Input must not be mutated.
	if vals[0] != 9 || vals[9] != 10 {
		t.Fatal("Percentiles mutated its input")
	}
}

func TestPercentilesEmpty(t *testing.T) {
	got := Percentiles(nil, 50, 95)
	if len(got) != 2 || !math.IsNaN(got[0]) || !math.IsNaN(got[1]) {
		t.Fatalf("empty Percentiles = %v, want NaNs", got)
	}
}

func TestPercentilesSingleSample(t *testing.T) {
	got := Percentiles([]float64{42}, 0, 50, 95, 100)
	for i, v := range got {
		if v != 42 {
			t.Fatalf("percentile %d of a single sample = %v, want 42", i, v)
		}
	}
}

// TestSelectPercentilesMatchesSort pins the selection path to the
// sort-based reference bit for bit: every requested percentile, in any
// request order, on random, duplicate-heavy, pre-ordered and tiny inputs.
func TestSelectPercentilesMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	gen := map[string]func(n int) []float64{
		"random": func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = rng.NormFloat64() * 1e6
			}
			return v
		},
		"duplicates": func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(rng.Intn(4))
			}
			return v
		},
		"ascending": func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(i)
			}
			return v
		},
		"descending": func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(n - i)
			}
			return v
		},
	}
	ps := []float64{99, 95, 0, 50, 100, 95, 99.9, 1, 33.3}
	for name, g := range gen {
		for _, n := range []int{1, 2, 3, 10, 1000, 12001} {
			for rep := 0; rep < 3; rep++ {
				vals := g(n)
				ref := append([]float64(nil), vals...)
				sort.Float64s(ref)
				got := SelectPercentiles(vals, ps...)
				for i, p := range ps {
					if want := percentileSorted(ref, p); math.Float64bits(got[i]) != math.Float64bits(want) {
						t.Fatalf("%s n=%d: P%v = %v, sort reference %v", name, n, p, got[i], want)
					}
				}
				sort.Float64s(vals)
				for i := range vals {
					if vals[i] != ref[i] {
						t.Fatalf("%s n=%d: selection lost or changed a value", name, n)
					}
				}
			}
		}
	}
	if got := SelectPercentiles([]float64{3, 1}, 50, 0, 100); got[0] != 2 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("two samples: P50/P0/P100 = %v, want [2 1 3]", got)
	}
}
