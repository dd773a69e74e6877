package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// maxSnapshotBytes bounds a /complete body. The largest cells in the
// grid (ls36 testbeds, long campaigns) snapshot to well under a
// megabyte; 64 MiB leaves two orders of magnitude of headroom while
// still refusing pathological uploads.
const maxSnapshotBytes = 64 << 20

// Server exposes a Coordinator over HTTP. It owns no sweep state —
// handlers translate the wire protocol to Coordinator calls and status
// codes, nothing more — so tests exercise the service directly or
// through Handler with an httptest server interchangeably.
type Server struct {
	coord *Coordinator
	mux   *http.ServeMux
	// bodies recycles /complete body buffers (*bytes.Buffer): Complete
	// persists the payload and keeps none of it, so a buffer is free
	// again the moment its handler returns.
	bodies sync.Pool
	// maxBody is the /complete body bound, maxSnapshotBytes outside
	// tests.
	maxBody int64

	mu   sync.Mutex
	http *http.Server
}

// NewServer wraps a coordinator with the wire protocol's routes.
func NewServer(c *Coordinator) *Server {
	s := &Server{coord: c, mux: http.NewServeMux(), maxBody: maxSnapshotBytes}
	s.bodies.New = func() any { return new(bytes.Buffer) }
	s.mux.HandleFunc("GET "+PathManifest, s.handleManifest)
	s.mux.HandleFunc("POST "+PathLease, s.handleLease)
	s.mux.HandleFunc("POST "+PathRenew, s.handleRenew)
	s.mux.HandleFunc("POST "+PathComplete, s.handleComplete)
	s.mux.HandleFunc("GET "+PathProgress, s.handleProgress)
	return s
}

// Handler returns the server's route tree, for mounting under an
// httptest.Server or an existing mux.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve serves the wire protocol on ln until Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	// Shutdown cancels every request's context, which http.Server's own
	// does not, so held lease requests are answered, not waited out.
	ctx, stop := context.WithCancel(context.Background())
	srv := &http.Server{Handler: s.mux, BaseContext: func(net.Listener) context.Context { return ctx }}
	srv.RegisterOnShutdown(stop)
	s.mu.Lock()
	s.http = srv
	s.mu.Unlock()
	return srv.Serve(ln)
}

// Shutdown gracefully stops the server: held lease requests are
// answered at once, in-flight uploads complete, new connections are
// refused. Safe to call before Serve (no-op).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	srv := s.http
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.coord.ManifestJSON())
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "malformed lease request: "+err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, s.coord.holdGrant(r.Context(), req.Worker))
}

func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req RenewRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "malformed renew request: "+err.Error(), http.StatusBadRequest)
		return
	}
	resp, err := s.coord.Renew(req.Lease)
	if err != nil {
		// 410 Gone: the lease expired or was revoked; the cell may be
		// re-dispatched. The worker should finish and upload anyway —
		// completion is idempotent — but stop heartbeating this lease.
		http.Error(w, err.Error(), http.StatusGone)
		return
	}
	writeJSON(w, resp)
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	cell, err := strconv.Atoi(r.URL.Query().Get("cell"))
	if err != nil {
		http.Error(w, "malformed cell index: "+err.Error(), http.StatusBadRequest)
		return
	}
	var wall time.Duration
	if ms := r.URL.Query().Get("wall"); ms != "" {
		n, err := strconv.ParseInt(ms, 10, 64)
		if err != nil {
			http.Error(w, "malformed wall millis: "+err.Error(), http.StatusBadRequest)
			return
		}
		if n < 0 || n > math.MaxInt64/int64(time.Millisecond) {
			http.Error(w, "wall millis out of range: "+ms, http.StatusBadRequest)
			return
		}
		wall = time.Duration(n) * time.Millisecond
	}
	// A declared length over the bound is refused before anything is
	// read or sized from it; an undeclared (chunked) one is cut off by
	// MaxBytesReader.
	if r.ContentLength > s.maxBody {
		http.Error(w, "snapshot exceeds the upload bound", http.StatusRequestEntityTooLarge)
		return
	}
	buf := s.bodies.Get().(*bytes.Buffer)
	defer s.bodies.Put(buf)
	buf.Reset()
	if r.ContentLength > 0 {
		// MinRead of slack lets ReadFrom see EOF without regrowing.
		buf.Grow(int(r.ContentLength) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.maxBody)); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "reading snapshot: "+err.Error(), http.StatusBadRequest)
		return
	}
	resp, err := s.coord.Complete(cell, buf.Bytes(), wall)
	if err != nil {
		// A snapshot that fails validation or names the wrong cell is a
		// client-side defect (corruption in flight, version skew), not a
		// coordinator failure.
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, resp)
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.coord.Snapshot())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
