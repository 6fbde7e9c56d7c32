package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// span is one benchmark→program call of a traced run.
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int           // index of the enclosing span, -1 at top level
	lane       int           // 0: the main (or submitting) goroutine, 1: the poller
}

// tracer keeps a traced run's spans in memory until the run ends, and
// profiles the timed part of its traced phase. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span

	prof bytes.Buffer  // CPU profile of the timed part
	cpu  time.Duration // process CPU time over the same interval
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id for end and for child spans.
func (t *tracer) begin(name string, parent, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, lane: lane})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

func (t *tracer) startProfile() error {
	if t == nil {
		return nil
	}
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return err
	}
	t.cpu -= cpuTime()
	return nil
}

func (t *tracer) stopProfile() {
	if t == nil {
		return
	}
	t.cpu += cpuTime()
	pprof.StopCPUProfile()
}

// writeChrome writes the spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.lane,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": i, "parent": s.parent},
		})
	}
	t.mu.Unlock()
	return writeJSONFile(path, map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// layers are the names CPU samples are attributed to: the repository's
// modules (core stands for core, dialer, vsys, vserver, vnet and kmod),
// encoding for JSON and HTTP, the garbage collector, and other for the
// scheduler, syscalls outside HTTP, the profiler and this harness.
var layers = []string{
	"sim", "shard", "netsim", "ppp", "serial", "modem", "umts", "iproute",
	"netfilter", "itg", "stats", "metrics", "bufpool", "fault", "testbed",
	"control", "core", "encoding", "runtime.gc", "other",
}

const internalPrefix = "github.com/onelab/umtslab/internal/"

var layerOfPackage = map[string]string{
	"sim/shard": "shard", "dialer": "core", "vsys": "core", "vserver": "core",
	"vnet": "core", "kmod": "core",
}

// layerOf attributes one sampled stack, leaf first. Runtime and library
// frames belong to the nearest repository frame above them, so an
// allocation or a sort is charged to the layer that asked for it; GC
// work and the JSON/HTTP stack get layers of their own.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if isGC(fn) {
			return "runtime.gc"
		}
	}
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if rel, ok := strings.CutPrefix(pkg, internalPrefix); ok {
			if l, ok := layerOfPackage[rel]; ok {
				return l
			}
			for _, l := range layers {
				if l == rel {
					return l
				}
			}
			return "other"
		}
		if strings.HasPrefix(pkg, "encoding/") || pkg == "net" || pkg == "net/url" ||
			pkg == "net/textproto" || strings.HasPrefix(pkg, "net/http") {
			return "encoding"
		}
	}
	return "other"
}

func isGC(fn string) bool {
	for _, p := range []string{
		"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.sweepone", "runtime.(*sweepLocked)", "runtime.(*gcWork)",
	} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// funcPackage returns the import path of a symbol such as
// "github.com/x/y/internal/ppp.(*Deframer).Feed" or "runtime.mallocgc".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}
