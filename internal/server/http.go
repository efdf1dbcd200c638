package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"
)

// TenantHeader names the HTTP header attributing step/run requests to a
// rate-limit tenant (session creates carry the tenant in their body).
const TenantHeader = "X-Simsym-Tenant"

// Handler serves the session API over HTTP/JSON:
//
//	POST   /v1/sessions           create (body: SessionConfig) → Snapshot
//	GET    /v1/sessions           list → {"sessions": [Snapshot...]}
//	GET    /v1/sessions/{id}      inspect (?trace=1 adds the replayable trace)
//	POST   /v1/sessions/{id}/step advance (body: {"slots": n}, default 1)
//	POST   /v1/sessions/{id}/run  run to the session's slot budget
//	POST   /v1/sessions/{id}/topology
//	                              hot-reload (body: {"topology": ...});
//	                              incremental relabel + run restart
//	DELETE /v1/sessions/{id}      delete → last Snapshot
//	GET    /metrics               Prometheus text exposition
//	GET    /healthz               liveness + session count
//	POST   /admin/drain           graceful drain; responds when complete
//
// Backpressure and rate limiting surface as 429 (full shard queue,
// exhausted tenant bucket), draining and the session cap as 503.
func Handler(s *Server, onDrained func()) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var cfg SessionConfig
		if !decodeBody(w, r, &cfg) {
			return
		}
		snap, err := s.Create(cfg)
		if err != nil {
			writeSrvErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, snap)
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		snaps, err := s.List()
		if err != nil {
			writeSrvErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"sessions": snaps})
	})
	mux.HandleFunc("GET /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		snap, err := s.Inspect(r.PathValue("id"), r.URL.Query().Get("trace") != "")
		if err != nil {
			writeSrvErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, snap)
	})
	mux.HandleFunc("POST /v1/sessions/{id}/step", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Slots int `json:"slots"`
		}
		if r.ContentLength != 0 && !decodeBody(w, r, &body) {
			return
		}
		snap, err := s.Step(r.PathValue("id"), body.Slots, r.Header.Get(TenantHeader))
		if err != nil {
			writeSrvErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, snap)
	})
	mux.HandleFunc("POST /v1/sessions/{id}/run", func(w http.ResponseWriter, r *http.Request) {
		snap, err := s.Run(r.PathValue("id"), r.Header.Get(TenantHeader))
		if err != nil {
			writeSrvErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, snap)
	})
	mux.HandleFunc("POST /v1/sessions/{id}/topology", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Topology string `json:"topology"`
		}
		if !decodeBody(w, r, &body) {
			return
		}
		snap, err := s.Reload(r.PathValue("id"), body.Topology, r.Header.Get(TenantHeader))
		if err != nil {
			writeSrvErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, snap)
	})
	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		snap, err := s.Delete(r.PathValue("id"))
		if err != nil {
			writeSrvErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, snap)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = s.Registry().WriteText(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		s.gate.mu.RLock()
		draining := s.gate.closed
		s.gate.mu.RUnlock()
		writeJSON(w, http.StatusOK, map[string]any{
			"status":   "ok",
			"sessions": s.Sessions(),
			"draining": draining,
		})
	})
	mux.HandleFunc("POST /admin/drain", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"drained": true, "sessions": s.Sessions()})
		if onDrained != nil {
			onDrained()
		}
	})
	return mux
}

// maxBodyBytes caps a request body. Bodies are a session config, a slot
// count or a topology, and a gen directive names even a large topology
// in a few bytes, so real requests stay far below it.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body into v, reading at most maxBodyBytes.
// On failure it writes the response — 413 for an oversized body, 400
// for any other decode error — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeErr(w, status, err)
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeSrvErr maps the server's sentinel errors onto HTTP statuses.
func writeSrvErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrBusy), errors.Is(err, ErrRateLimited):
		writeErr(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDraining), errors.Is(err, ErrFull):
		writeErr(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrNotFound):
		writeErr(w, http.StatusNotFound, err)
	case errors.Is(err, ErrBadSession):
		writeErr(w, http.StatusBadRequest, err)
	default:
		writeErr(w, http.StatusInternalServerError, err)
	}
}
