package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// maxBodyBytes bounds a submitted spec; a JobRequest is a few hundred
// bytes, so 1 MiB is generous headroom, not a streaming surface.
const maxBodyBytes = 1 << 20

// Server is the HTTP surface over a Manager. Routes (OPERATIONS.md has
// the full reference):
//
//	POST   /v1/jobs          submit a job            → 202 JobStatus
//	GET    /v1/jobs          list jobs               → 200 job list
//	GET    /v1/jobs/{id}     job status + progress   → 200 JobStatus
//	GET    /v1/jobs/{id}/result  deterministic result → 200 ResultPayload
//	DELETE /v1/jobs/{id}     cancel                  → 200 JobStatus
//	GET    /v1/experiments   registry listing        → 200
//	POST   /v1/admin/drain   drain (graceful stop)   → 200
//	GET    /metrics          Prometheus text         → 200
//	GET    /healthz          liveness                → 200
type Server struct {
	m   *Manager
	mux *http.ServeMux
}

// NewServer wires the routes over m.
func NewServer(m *Manager) *Server {
	s := &Server{m: m, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.submit)
	s.mux.HandleFunc("GET /v1/jobs", s.list)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.status)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.result)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	s.mux.HandleFunc("GET /v1/experiments", s.experiments)
	s.mux.HandleFunc("POST /v1/admin/drain", s.drain)
	s.mux.HandleFunc("GET /metrics", s.metrics)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Manager returns the server's manager, for the daemon's shutdown path.
func (s *Server) Manager() *Manager { return s.m }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false) // results embed ASCII plots; keep them readable
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}

type errorBody struct {
	Error string   `json:"error"`
	State JobState `json:"state,omitempty"`
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// decodeJobRequest decodes a POST /v1/jobs body strictly: an unknown field
// is an error, not silently ignored.
func decodeJobRequest(body io.Reader) (JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeJobRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	st, err := s.m.Submit(req)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, st)
	case errors.Is(err, ErrDraining):
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrQueueFull):
		writeErr(w, http.StatusTooManyRequests, "%v", err)
	default:
		writeErr(w, http.StatusBadRequest, "%v", err)
	}
}

type jobList struct {
	Jobs       []*JobStatus `json:"jobs"`
	QueueDepth int          `json:"queue_depth"`
	Draining   bool         `json:"draining"`
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	jobs, depth, draining := s.m.List()
	writeJSON(w, http.StatusOK, jobList{Jobs: jobs, QueueDepth: depth, Draining: draining})
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	st, err := s.m.Status(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, "job %s: %v", r.PathValue("id"), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) result(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	payload, state, err := s.m.Result(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, "job %s: %v", id, err)
		return
	}
	if payload == nil {
		writeJSON(w, http.StatusConflict,
			errorBody{Error: fmt.Sprintf("job %s has no result (state %s)", id, state), State: state})
		return
	}
	writeJSON(w, http.StatusOK, payload)
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.m.Cancel(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, "job %s: %v", r.PathValue("id"), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

type experimentInfo struct {
	ID     string `json:"id"`
	Desc   string `json:"desc"`
	Seeded bool   `json:"seeded"`
	Short  bool   `json:"short"`
}

func (s *Server) experiments(w http.ResponseWriter, r *http.Request) {
	defs := s.m.Defs()
	out := make([]experimentInfo, 0, len(defs))
	for _, d := range defs {
		out = append(out, experimentInfo{ID: d.ID, Desc: d.Desc, Seeded: d.Seeded, Short: d.HasShort})
	}
	writeJSON(w, http.StatusOK, map[string][]experimentInfo{"experiments": out})
}

type drainReply struct {
	Drained  bool   `json:"drained"`
	Canceled int    `json:"canceled"`
	Error    string `json:"error,omitempty"`
}

// drain stops admission and waits up to grace_sec (default 30) for
// in-flight work; past the grace it cancels what is left. Draining is
// one-way: the daemon is expected to exit afterwards.
func (s *Server) drain(w http.ResponseWriter, r *http.Request) {
	grace := 30 * time.Second
	if g := r.URL.Query().Get("grace_sec"); g != "" {
		v, err := strconv.ParseFloat(g, 64)
		if err != nil || v < 0 {
			writeErr(w, http.StatusBadRequest, "bad grace_sec %q", g)
			return
		}
		grace = time.Duration(v * float64(time.Second))
	}
	ctx, cancel := context.WithTimeout(r.Context(), grace)
	defer cancel()
	n, err := s.m.Drain(ctx)
	reply := drainReply{Drained: true, Canceled: n}
	if err != nil {
		reply.Error = fmt.Sprintf("grace expired: %v", err)
	}
	writeJSON(w, http.StatusOK, reply)
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, s.m.MetricsText())
}

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.m.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}
