package sim

import "testing"

// TestFIFOOrderAcrossWrapAndGrowth interleaves pushes and pops so the
// ring wraps and grows while wrapped, checking FIFO order against a
// plain slice model throughout.
func TestFIFOOrderAcrossWrapAndGrowth(t *testing.T) {
	var f FIFO[int]
	var model []int
	next := 0
	for round := 0; round < 200; round++ {
		for i := 0; i < round%13+1; i++ {
			f.Push(next)
			model = append(model, next)
			next++
		}
		for i := 0; i < round%11 && len(model) > 0; i++ {
			if got := f.Pop(); got != model[0] {
				t.Fatalf("round %d: Pop = %d, want %d", round, got, model[0])
			}
			model = model[1:]
		}
		if f.Len() != len(model) {
			t.Fatalf("round %d: Len = %d, want %d", round, f.Len(), len(model))
		}
	}
}

// TestFIFOSteadyStateBounded is the regression test for FIFOs that
// rewound only when drained: under a load that never drains, the ring
// must keep reusing its slots.
func TestFIFOSteadyStateBounded(t *testing.T) {
	var f FIFO[[]byte]
	for i := 0; i < 100; i++ {
		f.Push(nil)
	}
	for i := 0; i < 100000; i++ {
		f.Push(nil)
		f.Pop()
	}
	if f.Cap() > 2*101 {
		t.Fatalf("Cap = %d after 100k steady-state cycles at occupancy 100-101", f.Cap())
	}
}
