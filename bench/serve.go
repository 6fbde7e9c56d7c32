package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/onelab/umtslab/internal/control"
	"github.com/onelab/umtslab/internal/metrics"
	"github.com/onelab/umtslab/internal/testbed"
)

const (
	// serveRate is the open loop's submission rate in jobs per second:
	// about a quarter of the rate at which a two-worker service saturated
	// at the seed commit on a 2-CPU machine (55-80 jobs/s; README.md).
	// At half of saturation (35 jobs/s), queueing turned the host's slow
	// spells into median-latency swings past the wall_s bound.
	serveRate = 15.0
	// pollEvery paces the status polls of the job being awaited.
	pollEvery = 2 * time.Millisecond
	// drainLimit bounds how long the open loop may take to finish its
	// backlog once the last job is submitted.
	drainLimit = 60 * time.Second
)

// serveMix draws job kinds 3:1:1 (the workload's legs in order: VoIP with
// streaming analysis, 1 Mbps CBR, Ethernet VoIP), shuffled by the seed
// within each block of five so that every run offers the same mix.
var serveMix = []int{0, 0, 0, 1, 2}

type serveJob struct {
	kind int
	doc  []byte
	due  time.Time
	id   string
}

// serveLoad is the serve workload's job plan.
type serveLoad struct {
	jobs     []serveJob
	probeDoc []byte
}

func newServeLoad(w *workload, seed int64, n int, small bool) (*serveLoad, error) {
	tmpl := w.templates(small)
	rng := rand.New(rand.NewSource(seed))
	s := &serveLoad{probeDoc: specDoc(tmpl[0], specSeed(seed, n), probeOverride)}
	for len(s.jobs) < n {
		block := append([]int(nil), serveMix...)
		rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		for _, k := range block[:min(len(block), n-len(s.jobs))] {
			s.jobs = append(s.jobs, serveJob{kind: k, doc: specDoc(tmpl[k], specSeed(seed, len(s.jobs)), nil)})
		}
	}
	docs := [][]byte{s.probeDoc}
	for _, j := range s.jobs {
		docs = append(docs, j.doc)
	}
	if _, err := parseDocs(docs); err != nil {
		return nil, err
	}
	return s, nil
}

// service is a control-plane server listening on loopback.
type service struct {
	srv    *control.Server
	hs     *http.Server
	base   string
	served chan error
}

func startService() (*service, error) {
	srv := control.NewServer(control.Config{Workers: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(fmt.Errorf("listen: %w", err), srv.Shutdown(context.Background()))
	}
	s := &service{
		srv: srv, hs: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop closes the listener and connections, waits for Serve to return,
// then drains the job workers.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), drainLimit)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.srv.Shutdown(ctx))
}

// client holds one HTTP connection to the service.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer
	lane int
}

func newClient(base string, tr *tracer, lane int) *client {
	return &client{
		hc:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		base: base, tr: tr, lane: lane,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) do(ctx context.Context, span string, parent int, method, path string, body []byte) (int, []byte, error) {
	id := c.tr.begin(span, parent, c.lane)
	defer c.tr.end(id)
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (c *client) submit(ctx context.Context, parent int, doc []byte) (string, error) {
	code, body, err := c.do(ctx, "http.submit", parent, http.MethodPost, "/v1/jobs", doc)
	if err != nil {
		return "", err
	}
	if code != http.StatusAccepted {
		return "", fmt.Errorf("submit refused: HTTP %d: %s", code, bytes.TrimSpace(body))
	}
	var st control.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return "", fmt.Errorf("submit response: %w", err)
	}
	return st.ID, nil
}

// await polls a job's status until it ends, then fetches its result.
func (c *client) await(ctx context.Context, parent int, id string) ([]byte, error) {
	for {
		code, body, err := c.do(ctx, "http.status", parent, http.MethodGet, "/v1/jobs/"+id, nil)
		if err != nil {
			return nil, err
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("status of %s: HTTP %d: %s", id, code, bytes.TrimSpace(body))
		}
		var st control.JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			return nil, fmt.Errorf("status of %s: %w", id, err)
		}
		switch st.State {
		case control.StateQueued, control.StateRunning:
			select {
			case <-time.After(pollEvery):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		case control.StateDone:
			return c.result(ctx, parent, id)
		default:
			return nil, fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
		}
	}
}

func (c *client) result(ctx context.Context, parent int, id string) ([]byte, error) {
	code, body, err := c.do(ctx, "http.result", parent, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("result of %s: HTTP %d: %s", id, code, bytes.TrimSpace(body))
	}
	return body, err
}

// probe times a fresh service from NewServer to the first probe job's
// result over HTTP; tearing the service down is not timed.
func (s *serveLoad) probe(tr *tracer) (float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), drainLimit)
	defer cancel()
	id := tr.begin("probe", -1, 0)
	start := time.Now()
	svc, err := startService()
	if err != nil {
		return 0, err
	}
	c := newClient(svc.base, tr, 0)
	jid, err := c.submit(ctx, id, s.probeDoc)
	if err == nil {
		_, err = c.await(ctx, id, jid)
	}
	elapsed := time.Since(start).Seconds()
	tr.end(id)
	c.close()
	return elapsed, errors.Join(err, svc.stop())
}

// measure runs the open loop for seconds: one connection submits the
// planned jobs on a fixed-rate schedule, the other awaits the oldest
// outstanding job and fetches its result. A job's latency runs from when
// it was due to when its result arrived. Afterwards, untimed, every
// result is checked and the first job of each kind must match an
// in-process run of its spec byte for byte; a traced phase also scrapes
// the jobs' metrics.
func (s *serveLoad) measure(seconds float64, n int, tr *tracer) (*phase, error) {
	if n <= 0 {
		n = max(1, int(serveRate*seconds))
	}
	jobs := append([]serveJob(nil), s.jobs[:min(n, len(s.jobs))]...)
	svc, err := startService()
	if err != nil {
		return nil, err
	}
	sub, poll := newClient(svc.base, tr, 0), newClient(svc.base, tr, 1)
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds*float64(time.Second))+drainLimit)
	ph, err := s.openLoop(ctx, jobs, sub, poll, tr)
	if err == nil {
		err = s.check(ctx, ph, jobs, poll)
	}
	if err == nil && tr != nil {
		ph.snap, err = scrape(ctx, poll)
	}
	cancel()
	sub.close()
	poll.close()
	return ph, errors.Join(err, svc.stop())
}

func (s *serveLoad) openLoop(ctx context.Context, jobs []serveJob, sub, poll *client, tr *tracer) (*phase, error) {
	ph := &phase{attempted: len(jobs), late: make([]float64, len(jobs))}
	// Sized to the number of sends, so the generator never waits on the
	// poller and keeps its schedule.
	queue := make(chan *serveJob, len(jobs))
	var (
		wg        sync.WaitGroup
		subFailed []string // written by the generator only
		done      int      // written by the poller only
	)
	if err := tr.startProfile(); err != nil {
		return nil, err
	}
	m := startMeter()
	start := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(queue)
		for i := range jobs {
			j := &jobs[i]
			j.due = start.Add(time.Duration(float64(i) / serveRate * float64(time.Second)))
			time.Sleep(time.Until(j.due))
			ph.late[i] = time.Since(j.due).Seconds()
			id, err := sub.submit(ctx, -1, j.doc)
			if err != nil {
				subFailed = append(subFailed, fmt.Sprintf("job %d: %v", i, err))
				continue
			}
			j.id = id
			queue <- j
		}
	}()
	var pollFailed []string
	go func() {
		defer wg.Done()
		for j := range queue {
			if _, err := poll.await(ctx, -1, j.id); err != nil {
				pollFailed = append(pollFailed, fmt.Sprintf("%s: %v", j.id, err))
				continue
			}
			ph.wall = append(ph.wall, time.Since(j.due).Seconds())
			done++
		}
	}()
	wg.Wait()
	total := m.stop()
	tr.stopProfile()
	for _, msg := range append(subFailed, pollFailed...) {
		ph.fail(1, "%s", msg)
	}
	if done == 0 {
		return ph, nil
	}
	ph.cpu = []float64{total.cpu / float64(done)}
	ph.alloc = []float64{total.allocMB / float64(done)}
	ph.elapsed = total.wall
	return ph, nil
}

// check fetches every finished job's result again and applies the output
// checks; the first job of each kind must equal an in-process run.
func (s *serveLoad) check(ctx context.Context, ph *phase, jobs []serveJob, c *client) error {
	seen := map[int]bool{}
	for _, j := range jobs {
		if j.id == "" {
			continue
		}
		enc, err := c.result(ctx, -1, j.id)
		if err != nil {
			continue // already counted as failed by the open loop
		}
		spec, err := testbed.ParseSpec(j.doc)
		if err != nil {
			return err
		}
		res, err := decodeResult(enc)
		if err != nil {
			return err
		}
		for _, msg := range checkResult(spec, res, false) {
			ph.fail(1, "%s: %s", j.id, msg)
		}
		if seen[j.kind] {
			continue
		}
		seen[j.kind] = true
		local, rep, err := runDoc(j.doc, nil, -1, nil)
		if err != nil {
			return err
		}
		if !bytes.Equal(local, enc) {
			ph.fail(1, "%s: service result differs from the in-process run of its spec", j.id)
		}
		if ph.report == nil {
			ph.report = rep
		}
	}
	return nil
}

// scrape sums the per-job metric snapshots the service exposes.
func scrape(ctx context.Context, c *client) (metrics.Snapshot, error) {
	code, body, err := c.do(ctx, "http.metrics", -1, http.MethodGet, "/v1/metrics", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("metrics: HTTP %d", code)
	}
	if err != nil {
		return metrics.Snapshot{}, err
	}
	var doc struct {
		Jobs map[string]metrics.Snapshot `json:"jobs"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return metrics.Snapshot{}, fmt.Errorf("metrics: %w", err)
	}
	var snaps []metrics.Snapshot
	for _, s := range doc.Jobs {
		snaps = append(snaps, s)
	}
	return metrics.MergeSnapshots(snaps...), nil
}
