package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// readRecords loads a results file's untraced records, per workload in
// file order.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			recs[r.Workload] = append(recs[r.Workload], r)
		}
	}
	return recs, sc.Err()
}

// runCompare prints, for every workload and end-to-end metric, the
// median and quartiles of the parent's and the change's runs and a
// verdict. The i-th run of a workload in one file is paired with the
// i-th in the other, so the runs should alternate between the two
// builds. It reports whether every pair stayed within its bound and no
// more operations failed.
func runCompare(w io.Writer, parentPath, changePath string) (bool, error) {
	parent, err := readRecords(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-16s %-12s %5s  %-32s %-32s %s\n", "workload", "metric", "runs", "parent median [q1, q3]", "change median [q1, q3]", "verdict")
	for _, wl := range workloads {
		a, b := parent[wl.name], change[wl.name]
		if len(a) == 0 || len(b) == 0 {
			fmt.Fprintf(w, "%-16s missing from %s\n", wl.name, map[bool]string{true: "the parent", false: "the change"}[len(a) == 0])
			ok = false
			continue
		}
		for _, d := range endToEnd {
			pa, pb := values(a, d.name), values(b, d.name)
			// Set-up time is judged by its median alone: its probes are too
			// short for a run-to-run spread within any useful bound.
			v := verdict(pa, pb, d.bound, d.name != "setup_s")
			ok = ok && v != "worse" && v != "unresolved"
			fmt.Fprintf(w, "%-16s %-12s %2d/%-2d  %-32s %-32s %s\n", wl.name, d.name, len(pa), len(pb), spread(pa), spread(pb), v)
		}
		fa, fb := failFrac(a), failFrac(b)
		v := "same"
		if fb > fa {
			v, ok = "worse", false
		}
		fmt.Fprintf(w, "%-16s %-12s %2d/%-2d  %-32.4g %-32.4g %s\n", wl.name, "fail_frac", len(a), len(b), fa, fb, v)
	}
	return ok, nil
}

func values(recs []record, name string) []float64 {
	var v []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

func spread(v []float64) string {
	q1, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(v), q1, q3)
}

func failFrac(recs []record) float64 {
	var attempted, failed int
	for _, r := range recs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return float64(failed) / math.Max(float64(attempted), 1)
}

// verdict judges a lower-is-better metric. A change is worse when its
// median exceeds the parent's by more than the bound, and (with
// checkSpread) unresolved when either side's quartile spread is wider
// than the bound, unless every run of the change beats every run of the
// parent. It improved when it wins at least nine of ten pairs and the
// medians differ by more than the parent's quartile spread.
func verdict(parent, change []float64, bound float64, checkSpread bool) string {
	mp, mc := median(parent), median(change)
	p1, p3 := quartiles(parent)
	c1, c3 := quartiles(change)
	n, wins := min(len(parent), len(change)), 0
	for i := 0; i < n; i++ {
		if change[i] < parent[i] {
			wins++
		}
	}
	switch {
	case mc > mp*(1+bound):
		return "worse"
	case checkSpread && ((p3-p1)/mp > bound || (c3-c1)/mc > bound):
		if slices.Max(change) < slices.Min(parent) {
			return "improved"
		}
		return "unresolved"
	case n >= 10 && 10*wins >= 9*n && mp-mc > p3-p1:
		return "improved"
	}
	return "same"
}
