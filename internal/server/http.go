package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"

	"revft/internal/telemetry"
)

// Handler returns the server's HTTP API:
//
//	POST   /jobs               submit a JobSpec, get 202 + JobStatus
//	GET    /jobs               list all jobs (?digest=<spec digest>
//	                           filters — the idempotency lookup)
//	GET    /jobs/{id}          poll one job's status
//	GET    /jobs/{id}/result   fetch a completed job's result.json
//	GET    /jobs/{id}/trace    fetch a job's JSONL trace
//	GET    /jobs/{id}/metrics  the job's telemetry snapshot
//	                           (JSON; ?format=text for text exposition)
//	GET    /jobs/{id}/progress live progress, point-wall histogram, ETA
//	DELETE /jobs/{id}          cancel a job
//	GET    /healthz            health state machine:
//	                           healthy|degraded → 200, draining|failed → 503
//	GET    /metrics            server-wide aggregate in text exposition
//
// Typed admission rejections surface as their RejectError status (429 for
// overload and quota, 400 for bad specs, 413 for a submit body over 1 MiB,
// 503 while draining) with a JSON body carrying the machine-readable
// code. Unknown job IDs are 404s on every per-job route, including
// metrics and progress.
//
// # Backoff contract
//
// Every 429 and 503 response carries a Retry-After header (integer
// seconds). 429s are load conditions on this instance — queue_full,
// class_queue_full, deadline_unmeetable, tenant quotas — where the hint
// derives from the observed job service time and the queue ahead of
// the request; retrying the *same* submission after that delay is
// correct and safe, because submissions are idempotent by spec digest
// (GET /jobs?digest= finds an already-accepted equivalent). 503s mean
// the instance is going away (draining, failed): clients should prefer
// another instance, or wait at least the hinted delay for a restart.
// 400s are terminal — the spec itself is wrong — and must not be
// retried. internal/client implements this contract: jittered
// exponential backoff with the Retry-After as the floor, digest lookup
// before every (re)submit, typed APIError for terminal refusals.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /jobs/{id}/metrics", s.handleJobMetrics)
	mux.HandleFunc("GET /jobs/{id}/progress", s.handleProgress)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError maps API errors onto status codes: RejectError carries its
// own, lookup misses are 404, premature result fetches 409. Every 429
// and 503 carries a Retry-After header: the rejection's own estimate
// when it has one, else 1s for load (slots churn quickly) and 30s for
// 503s (the instance is going away; see the Handler doc block).
func writeError(w http.ResponseWriter, err error) {
	var rej *RejectError
	switch {
	case errors.As(err, &rej):
		if rej.Status == http.StatusTooManyRequests || rej.Status == http.StatusServiceUnavailable {
			sec := rej.RetryAfterSeconds
			if sec < 1 {
				sec = 1
				if rej.Status == http.StatusServiceUnavailable {
					sec = 30
				}
			}
			w.Header().Set("Retry-After", strconv.Itoa(sec))
		}
		writeJSON(w, rej.Status, rej)
	case errors.Is(err, ErrNotFound):
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "not_found", "reason": err.Error()})
	case errors.Is(err, ErrNotDone):
		writeJSON(w, http.StatusConflict, map[string]string{"error": "not_done", "reason": err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "internal", "reason": err.Error()})
	}
}

// maxSpecBytes bounds a POST /jobs body. A JobSpec encodes to a few
// hundred bytes; anything near the bound is not a spec.
const maxSpecBytes = 1 << 20

// decodeSpec reads exactly one JobSpec from r. Unknown fields and any
// bytes after the spec other than whitespace are refused.
func decodeSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("another value")
		}
		return JobSpec{}, fmt.Errorf("trailing data after spec: %w", err)
	}
	return spec, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, reject(CodeInvalidSpec, status, "decode spec: %v", err))
		return
	}
	// Each submission gets a request span; the admitted job's span tree
	// roots under it, so traces reconstruct request → job → point.
	reqSpan := telemetry.Root(fmt.Sprintf("req-%d", s.reqSeq.Add(1)))
	st, err := s.SubmitSpan(spec, reqSpan)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	if d := r.URL.Query().Get("digest"); d != "" {
		jobs := s.JobsByDigest(d)
		if jobs == nil {
			jobs = []JobStatus{}
		}
		writeJSON(w, http.StatusOK, jobs)
		return
	}
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	data, err := s.Result(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	path, err := s.TracePath(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	if path == "" {
		writeJSON(w, http.StatusGone, map[string]string{"error": "trace_degraded", "reason": "the job's trace degraded to counters"})
		return
	}
	data, rerr := os.ReadFile(path)
	if rerr != nil {
		writeError(w, fmt.Errorf("read trace: %w", rerr))
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	_, _ = w.Write(data)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleHealth serves the four-state health machine. degraded still
// returns 200 — the instance works, a balancer should just prefer
// others — while draining/failed return 503 with a Retry-After.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	switch h.Status {
	case HealthDraining, HealthFailed:
		w.Header().Set("Retry-After", "30")
		writeJSON(w, http.StatusServiceUnavailable, h)
	default:
		writeJSON(w, http.StatusOK, h)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = s.MetricsSnapshot().WriteText(w)
}

func (s *Server) handleJobMetrics(w http.ResponseWriter, r *http.Request) {
	snap, err := s.JobMetrics(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = snap.WriteText(w)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	p, err := s.Progress(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, p)
}
