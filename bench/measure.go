package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// meter brackets one measured interval of the whole process: host time,
// user+system CPU and heap bytes allocated.
type meter struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

// sample is what a meter measured, in seconds and megabytes.
type sample struct {
	wall, cpu, allocMB float64
}

func startMeter() meter {
	return meter{wall: time.Now(), cpu: cpuTime(), alloc: heapAllocs("/gc/heap/allocs:bytes")}
}

func (m meter) stop() sample {
	return sample{
		wall:    time.Since(m.wall).Seconds(),
		cpu:     (cpuTime() - m.cpu).Seconds(),
		allocMB: float64(heapAllocs("/gc/heap/allocs:bytes")-m.alloc) / 1e6,
	}
}

// cpuTime is the process's user+system CPU time (getrusage), which
// counts every thread: simulation workers, the garbage collector and
// the HTTP stack alike.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage(RUSAGE_SELF): %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocs reads one cumulative allocation counter of runtime/metrics.
func heapAllocs(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: parse %q: %w", rest, err)
		}
		return kb * 1024 / 1e6, nil
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the method Python's
// statistics.quantiles(values, n=4) uses by default ("exclusive").
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile is the nearest-rank p-th percentile.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}
