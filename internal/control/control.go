// Package control is the measurement-platform service mode: a
// long-running HTTP/JSON control plane over the testbed's declarative
// Spec. Clients POST a testbed.Spec, the server queues it onto a
// bounded job queue, a worker pool executes each job on a private
// Scenario (same fail-fast semantics as the one-shot CLI), live QoS
// windows stream out over SSE while the simulation runs, and a scrape
// endpoint exposes per-job metrics snapshots next to service-level
// counters. A Spec submitted here produces byte-identical results to
// the equivalent one-shot `cmd/experiments` run — the simulation only
// ever sees the declarative description.
package control

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/onelab/umtslab/internal/metrics"
	"github.com/onelab/umtslab/internal/testbed"
)

// Config sizes the service.
type Config struct {
	// Queue bounds the pending-job backlog (default 16); submits
	// beyond it are refused with 503 rather than buffered without
	// limit.
	Queue int
	// Workers sizes the job worker pool (default GOMAXPROCS, capped
	// at 4 — jobs parallelize internally via repetition pools and
	// shard engines, so a modest pool keeps the box responsive).
	Workers int

	// startGate, when non-nil, is received from before each job's
	// simulation starts — a test hook to hold jobs in the running
	// state deterministically.
	startGate chan struct{}
	// maxFinished overrides maxFinishedJobs — a test hook to reach the
	// history cap with a few jobs.
	maxFinished int
}

// maxFinishedJobs bounds the finished-job history: past it, the oldest
// finished job (with its encoded result and metrics snapshot) is
// evicted, and its ID answers 410 Gone. Queued and running jobs never
// count against it.
const maxFinishedJobs = 1024

// State is a job's lifecycle phase.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// job is one submitted Spec and everything its execution produces.
type job struct {
	id     string
	spec   *testbed.Spec
	state  State
	errMsg string
	result []byte // encoded Result, valid once state == StateDone
	hub    *hub
	ctx    context.Context
	cancel context.CancelFunc
}

// Server is the control plane: job table, bounded queue, worker pool,
// and the service metrics registry. Create with NewServer, expose with
// Handler, stop with Shutdown.
type Server struct {
	cfg Config

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // live job IDs in submission order
	// finished holds the IDs of finished jobs still in jobs, oldest
	// first.
	finished []string
	queue    chan *job
	closed   bool
	nextID   int
	reg      *metrics.Registry
	snaps    map[string]metrics.Snapshot

	wg      sync.WaitGroup
	baseCtx context.Context
	kill    context.CancelFunc
}

// NewServer starts the worker pool and returns the ready service.
func NewServer(cfg Config) *Server {
	if cfg.Queue <= 0 {
		cfg.Queue = 16
	}
	if cfg.Workers <= 0 {
		cfg.Workers = min(runtime.GOMAXPROCS(0), 4)
	}
	if cfg.maxFinished <= 0 {
		cfg.maxFinished = maxFinishedJobs
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		jobs:    make(map[string]*job),
		queue:   make(chan *job, cfg.Queue),
		reg:     metrics.NewRegistry(),
		snaps:   make(map[string]metrics.Snapshot),
		baseCtx: ctx,
		kill:    cancel,
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Submit validates and enqueues a spec, returning the new job's ID.
// It fails when the queue is full or the server is draining — the
// caller maps both onto 503.
var (
	errQueueFull = errors.New("control: job queue full")
	errDraining  = errors.New("control: server is shutting down")
)

func (s *Server) Submit(spec *testbed.Spec) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", errDraining
	}
	if len(s.queue) == cap(s.queue) {
		return "", errQueueFull
	}
	s.nextID++
	j := &job{
		id:    fmt.Sprintf("job-%d", s.nextID),
		spec:  spec,
		state: StateQueued,
		hub:   newHub(),
	}
	j.ctx, j.cancel = context.WithCancel(s.baseCtx)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.queue <- j // cannot block: length checked under the same lock
	s.reg.Counter("control/jobs_queued").Inc()
	s.reg.Gauge("control/queue_depth").Set(float64(len(s.queue)))
	return j.id, nil
}

// Cancel stops a job: a queued job is finished immediately as
// canceled, a running one gets its interrupt hook armed (the
// simulation notices within ~4096 events and abandons the run).
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return fmt.Errorf("control: unknown job %q", id)
	}
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.cancel()
		s.reg.Counter("control/jobs_canceled").Inc()
		j.hub.finish(finalEvent{ID: j.id, State: StateCanceled})
		s.retire(j)
		return nil
	case StateRunning:
		j.cancel()
		return nil
	default:
		return fmt.Errorf("control: job %q already %s", id, j.state)
	}
}

// Shutdown drains gracefully: no new submissions, queued jobs still
// run to completion, then the workers exit. If ctx expires first,
// every in-flight simulation is interrupted and Shutdown returns the
// context error once the workers have wound down.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.kill()
		<-done
		return ctx.Err()
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one dequeued job end to end, moving it
// queued -> running -> done/failed/canceled and publishing the final
// stream event.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	s.reg.Gauge("control/queue_depth").Set(float64(len(s.queue)))
	if j.state != StateQueued { // canceled while waiting
		s.mu.Unlock()
		return
	}
	j.state = StateRunning
	s.reg.Gauge("control/jobs_running").Add(1)
	s.mu.Unlock()

	if gate := s.cfg.startGate; gate != nil {
		<-gate
	}
	start := time.Now()
	rep, snap, err := s.execute(j)
	elapsed := time.Since(start)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg.Gauge("control/jobs_running").Add(-1)
	s.reg.Histogram("control/job_latency_ms").Observe(elapsed.Milliseconds())
	switch {
	case err == nil:
		enc, encErr := EncodeReport(rep)
		if encErr != nil {
			j.state = StateFailed
			j.errMsg = encErr.Error()
			s.reg.Counter("control/jobs_failed").Inc()
			break
		}
		j.state = StateDone
		j.result = enc
		s.snaps[j.id] = snap
		s.reg.Counter("control/jobs_done").Inc()
	case errors.Is(err, testbed.ErrInterrupted):
		j.state = StateCanceled
		s.reg.Counter("control/jobs_canceled").Inc()
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
		s.reg.Counter("control/jobs_failed").Inc()
	}
	j.hub.finish(finalEvent{ID: j.id, State: j.state, Error: j.errMsg})
	s.retire(j)
}

// retire enters a job that just reached its final state into the
// finished history and evicts the oldest finished jobs beyond the cap.
// The caller holds s.mu.
func (s *Server) retire(j *job) {
	s.finished = append(s.finished, j.id)
	for len(s.finished) > s.cfg.maxFinished {
		id := s.finished[0]
		s.finished = s.finished[1:]
		delete(s.jobs, id)
		delete(s.snaps, id)
		s.order = slices.DeleteFunc(s.order, func(o string) bool { return o == id })
		s.reg.Counter("control/jobs_evicted").Inc()
	}
}

// issued reports whether id is one this server handed out (evicted or
// not). The caller holds s.mu.
func (s *Server) issued(id string) bool {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	return err == nil && n >= 1 && n <= s.nextID && id == fmt.Sprintf("job-%d", n)
}

// execute turns the job's declarative spec into a Scenario, attaches
// the server-side runtime hooks (cancellation interrupt, metrics
// capture, and the live-window feed into the job's hub, which every
// job fills), and runs it.
func (s *Server) execute(j *job) (*testbed.Report, metrics.Snapshot, error) {
	sc, err := j.spec.Scenario()
	if err != nil {
		return nil, metrics.Snapshot{}, err
	}
	testbed.WithInterrupt(func() bool { return j.ctx.Err() != nil })(sc)
	var snaps []metrics.Snapshot
	testbed.WithMetricsDump(func(sn metrics.Snapshot) {
		snaps = append(snaps, sn)
	})(sc)
	// The hub is internally locked: the sink may fire from engine
	// worker goroutines.
	testbed.WithLiveWindows(j.hub.publish)(sc)
	rep, err := sc.Run()
	if err != nil {
		return nil, metrics.Snapshot{}, err
	}
	return rep, metrics.MergeSnapshots(snaps...), nil
}
