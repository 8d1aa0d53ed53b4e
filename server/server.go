// Package server exposes a dualvdd.Runner as an HTTP/JSON API — the network
// face of the job service. It is a pure transport: every behavior (queue
// bounds, cancellation, the content-addressed result cache) lives in the
// Runner it wraps, usually a dualvdd.Local; the handlers only encode and
// decode the wire schema shared with the client package via internal/report.
//
// Endpoints:
//
//	POST   /v1/jobs             submit a job (report.JobRequest) → 202 + JobResource
//	GET    /v1/jobs/{id}        job status; ?wait=1 blocks until terminal
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/jobs/{id}/events progress stream (SSE, one event envelope per frame,
//	                            ending on the terminal JobResource)
//	GET    /v1/benchmarks       the sorted MCNC suite
//	GET    /healthz             liveness
//	GET    /metricsz            counters snapshot (jobs, cache, sim+STA totals)
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"dualvdd"
	"dualvdd/internal/report"
)

// Server turns a Runner into an http.Handler.
type Server struct {
	runner      dualvdd.Runner
	mux         *http.ServeMux
	waitTimeout time.Duration
}

// Option configures New.
type Option func(*Server)

// WithRequestTimeout bounds blocking requests: a ?wait=1 status poll returns
// the current (possibly non-terminal) resource after this long, and every
// SSE write must complete within it — a consumer that stops reading is cut,
// while a healthy stream may run for as long as the job does. Zero means
// the default of one minute. Clients loop; jobs are unaffected.
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.waitTimeout = d
		}
	}
}

// New builds the HTTP surface over a runner.
func New(r dualvdd.Runner, opts ...Option) *Server {
	s := &Server{runner: r, waitTimeout: time.Minute}
	for _, opt := range opts {
		opt(s)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST "+report.JobsPath, s.handleSubmit)
	s.mux.HandleFunc("GET "+report.JobsPath+"/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE "+report.JobsPath+"/{id}", s.handleCancel)
	s.mux.HandleFunc("GET "+report.JobsPath+"/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET "+report.BenchmarksPath, s.handleBenchmarks)
	s.mux.HandleFunc("GET "+report.HealthPath, s.handleHealth)
	s.mux.HandleFunc("GET "+report.MetricsPath, s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// writeJSON sends a JSON body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", report.ContentTypeJSON)
	w.WriteHeader(status)
	_ = report.WriteJSON(w, v)
}

// writeError maps a Runner error onto the HTTP status space. The client
// package inverts this mapping, so errors.Is holds across the wire.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, dualvdd.ErrJobNotFound):
		status = http.StatusNotFound
	case errors.Is(err, dualvdd.ErrQueueFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, dualvdd.ErrBudgetExhausted):
		status = http.StatusRequestTimeout
	case errors.Is(err, dualvdd.ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	}
	writeJSON(w, status, report.ErrorResponse{Error: err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req report.JobRequest
	if err := report.DecodeJSON(r.Body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, report.ErrorResponse{Error: "bad job request: " + err.Error()})
		return
	}
	ctx := r.Context()
	if tenant := r.Header.Get(report.TenantHeader); tenant != "" {
		// Restore the client-side tenant tag so a tenancy-aware runner (a
		// fleet coordinator) can apply its admission policy.
		ctx = dualvdd.WithTenant(ctx, tenant)
	}
	if raw := r.Header.Get(report.BudgetHeader); raw != "" {
		// Restore the remaining deadline budget; the runner rejects an
		// exhausted one at admission (mapped to 408 by writeError) and bounds
		// the accepted job's execution by the remainder. A malformed header
		// is ignored — a budget is an optimization, not an authentication.
		if ms, err := strconv.ParseInt(raw, 10, 64); err == nil {
			ctx = dualvdd.WithJobBudget(ctx, time.Duration(ms)*time.Millisecond)
		}
	}
	id, err := s.runner.Submit(ctx, req.Job())
	if err != nil {
		writeError(w, err)
		return
	}
	st, err := s.runner.Status(r.Context(), id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// parseLastEventID reads the SSE resume cursor: the index of the last event
// the client already has, or -1 when absent or malformed (full replay).
func parseLastEventID(r *http.Request) int {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		return -1
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return -1
	}
	return n
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := dualvdd.JobID(r.PathValue("id"))
	if r.URL.Query().Get("wait") != "" {
		ctx, cancel := context.WithTimeout(r.Context(), s.waitTimeout)
		defer cancel()
		st, err := s.runner.Result(ctx, id)
		if err == nil {
			writeJSON(w, http.StatusOK, st)
			return
		}
		// The wait window closed before the job did: fall through and
		// report the current state so the client can poll again. Any other
		// error is real.
		if !errors.Is(err, context.DeadlineExceeded) || r.Context().Err() != nil {
			writeError(w, err)
			return
		}
	}
	st, err := s.runner.Status(r.Context(), id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := dualvdd.JobID(r.PathValue("id"))
	if err := s.runner.Cancel(r.Context(), id); err != nil {
		writeError(w, err)
		return
	}
	st, err := s.runner.Status(r.Context(), id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEvents re-emits the job's typed event stream as SSE: one
// `id: <index>` + `data: <envelope>` frame per event, exactly the
// dualvdd.MarshalEvent encoding. A late subscriber gets the full history
// replayed first; a reconnecting one sends Last-Event-ID and is replayed
// only the events past that index. When the stream ends because the job is
// terminal the server appends an explicit `event: end` frame, so the client
// can tell a complete stream from a dropped connection. Its data is the
// terminal job resource as one compact JSON line, which a client keeps for
// the Result that follows: a job dispatched to a worker costs the worker
// two requests, the submission and this stream.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := dualvdd.JobID(r.PathValue("id"))
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, report.ErrorResponse{Error: "streaming unsupported"})
		return
	}
	events, err := s.runner.Watch(r.Context(), id)
	if err != nil {
		writeError(w, err)
		return
	}
	lastSeen := parseLastEventID(r)
	w.Header().Set("Content-Type", report.ContentTypeSSE)
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	// Each frame gets a fresh write deadline: a stalled consumer (open
	// connection, nobody reading) is cut after waitTimeout instead of
	// pinning this handler and the Watch goroutine forever, but a live
	// stream can outlast any job.
	rc := http.NewResponseController(w)
	index := -1
	for ev := range events {
		index++
		if index <= lastSeen {
			continue
		}
		b, err := dualvdd.MarshalEvent(ev)
		if err != nil {
			return
		}
		frame := fmt.Sprintf("id: %d\ndata: %s\n\n", index, b)
		_ = rc.SetWriteDeadline(time.Now().Add(s.waitTimeout))
		if _, err := io.WriteString(w, frame); err != nil {
			return
		}
		flusher.Flush()
	}
	// Watch closes the channel either because the job turned terminal or
	// because the request context died; only the former gets the marker (the
	// write is best-effort — a gone client cannot read it anyway). A status
	// that does not encode leaves the old `{}`, and the client polls.
	if st, err := s.runner.Status(context.Background(), id); err == nil && st.State.Terminal() {
		data, err := json.Marshal(st)
		if err != nil {
			data = []byte("{}")
		}
		_ = rc.SetWriteDeadline(time.Now().Add(s.waitTimeout))
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", report.EndEventName, data); err == nil {
			flusher.Flush()
		}
	}
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, report.BenchmarksResponse{Benchmarks: dualvdd.Benchmarks()})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, report.HealthResponse{Status: "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	mp, ok := s.runner.(dualvdd.MetricsProvider)
	if !ok {
		writeJSON(w, http.StatusNotImplemented,
			report.ErrorResponse{Error: "runner keeps no metrics"})
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, mp.Metrics())
	case "prom":
		w.Header().Set("Content-Type", report.ContentTypeProm)
		w.WriteHeader(http.StatusOK)
		_ = report.WriteMetricsProm(w, mp.Metrics())
	default:
		writeJSON(w, http.StatusBadRequest,
			report.ErrorResponse{Error: "unknown metrics format " + strconv.Quote(format)})
	}
}
