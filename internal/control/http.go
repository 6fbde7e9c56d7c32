package control

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"github.com/onelab/umtslab/internal/metrics"
	"github.com/onelab/umtslab/internal/testbed"
)

// maxSpecBytes bounds a submitted spec document; real specs are a few
// hundred bytes.
const maxSpecBytes = 1 << 20

// JobStatus is the wire summary of one job.
type JobStatus struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs          submit a testbed.Spec, 202 {"id": "job-N"}
//	GET    /v1/jobs          list jobs in submission order
//	GET    /v1/jobs/{id}         job status
//	GET    /v1/jobs/{id}/result  finished job's canonical Result
//	GET    /v1/jobs/{id}/stream  SSE: live QoS windows, then the final state
//	DELETE /v1/jobs/{id}         cancel (queued or running)
//	GET    /v1/metrics       service counters + per-job metric snapshots
//
// The server keeps the last maxFinishedJobs finished jobs; an evicted
// job's ID answers 410 Gone on every per-job route.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if len(body) > maxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "spec exceeds %d bytes", maxSpecBytes)
		return
	}
	spec, err := testbed.ParseSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id, err := s.Submit(spec)
	switch {
	case errors.Is(err, errQueueFull), errors.Is(err, errDraining):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, JobStatus{ID: id, State: StateQueued})
}

// lookup fetches a job's pointer by path value (nil + response written
// when absent: 410 for a job evicted from the finished history, 404 for
// an ID never issued).
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j, gone := s.jobs[id], s.issued(id)
	s.mu.Unlock()
	switch {
	case j != nil:
	case gone:
		writeError(w, http.StatusGone, "job %q was evicted from the finished-job history", id)
	default:
		writeError(w, http.StatusNotFound, "unknown job %q", id)
	}
	return j
}

func (s *Server) status(j *job) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return JobStatus{ID: j.id, State: j.state, Error: j.errMsg}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	list := make([]JobStatus, len(s.order))
	for i, id := range s.order {
		j := s.jobs[id]
		list[i] = JobStatus{ID: j.id, State: j.state, Error: j.errMsg}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": list})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, s.status(j))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	state, errMsg, result := j.state, j.errMsg, j.result
	s.mu.Unlock()
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(result)
	case StateFailed:
		writeError(w, http.StatusConflict, "job %s failed: %s", j.id, errMsg)
	case StateCanceled:
		writeError(w, http.StatusConflict, "job %s was canceled", j.id)
	default:
		writeError(w, http.StatusNotFound, "job %s is %s; result not ready", j.id, state)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if err := s.Cancel(j.id); err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.status(j))
}

// handleStream serves the job's live QoS windows as Server-Sent
// Events: every sealed window as an `event: window` with a
// testbed.LiveWindow payload (full history replayed first, so late
// subscribers miss nothing), then one `event: result` carrying the
// final job state. The connection then closes.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by transport")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	cursor := 0
	for {
		wins, final, wake := j.hub.since(cursor)
		for _, lw := range wins {
			data, err := json.Marshal(lw)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: window\ndata: %s\n\n", data)
		}
		cursor += len(wins)
		if len(wins) > 0 {
			fl.Flush()
		}
		if final != nil {
			data, err := json.Marshal(final)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: result\ndata: %s\n\n", data)
			fl.Flush()
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

// handleMetrics scrapes the service registry and the merged simulation
// snapshot of every finished job still in the history, in one JSON
// document.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	service := s.reg.Snapshot()
	jobs := make(map[string]metrics.Snapshot, len(s.snaps))
	for id, snap := range s.snaps {
		jobs[id] = snap
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"service": service,
		"jobs":    jobs,
	})
}
