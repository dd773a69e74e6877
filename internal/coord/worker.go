package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/detmath"
)

// Worker retry policy: transient failures (a coordinator not up yet or
// restarting mid-sweep, a flaky proxy in between) are retried with
// exponential backoff from retryBase, capped at retryCap, for at most
// retryAttempts tries per request.
const (
	retryBase     = 250 * time.Millisecond
	retryCap      = 30 * time.Second
	retryAttempts = 8
)

// Worker is the fleet client: it fetches the coordinator's manifest,
// re-expands the identical grid locally (coordinate-derived seeds make
// the expansion a pure function of the manifest), then loops leasing
// cells, running each in a reused arena, heartbeating while it
// computes, and uploading the finished snapshot. It exits when the
// coordinator reports the sweep drained.
type Worker struct {
	base   string
	name   string
	client *http.Client
	logf   func(format string, args ...any)
	// jstate is the worker's private splitmix64 jitter stream, seeded
	// from its name: retry delays are deterministic per named worker
	// (replayable tests) while distinct workers de-synchronize instead
	// of stampeding a recovering coordinator in lockstep.
	jstate atomic.Uint64
	// payload is the snapshot encode buffer, reused across cells: each
	// cell is encoded and uploaded before the next one starts.
	payload []byte
	// attempts is the tries per request, retryAttempts outside tests.
	attempts int

	// Fault-injection hooks, exercised by the coordinator's tests: a
	// worker that dies mid-cell, delivers twice, or never heartbeats.
	beforeUpload func(core.Cell) bool
	duplicate    bool
	noHeartbeat  bool
}

// WorkerOption configures a Worker.
type WorkerOption func(*Worker)

// WithName sets the worker name reported in lease requests.
func WithName(name string) WorkerOption {
	return func(w *Worker) { w.name = name }
}

// WithHTTPClient overrides the HTTP client.
func WithHTTPClient(c *http.Client) WorkerOption {
	return func(w *Worker) { w.client = c }
}

// WithLogf directs the worker's per-cell progress lines; nil (the
// default) discards them.
func WithLogf(logf func(format string, args ...any)) WorkerOption {
	return func(w *Worker) { w.logf = logf }
}

// WithBeforeUpload installs a hook called after a cell is computed and
// before its snapshot uploads. Returning false makes the worker exit
// without uploading — how tests simulate a worker killed mid-cell,
// leaving its lease to expire and the cell to re-dispatch.
func WithBeforeUpload(fn func(core.Cell) bool) WorkerOption {
	return func(w *Worker) { w.beforeUpload = fn }
}

// WithDuplicateUploads makes the worker deliver every snapshot twice —
// how tests prove completion is idempotent end to end.
func WithDuplicateUploads() WorkerOption {
	return func(w *Worker) { w.duplicate = true }
}

// WithoutHeartbeats disables lease renewal — how tests force a slow
// cell's lease past expiry so the straggler re-dispatch path runs.
func WithoutHeartbeats() WorkerOption {
	return func(w *Worker) { w.noHeartbeat = true }
}

// NewWorker builds a client for the coordinator at url (scheme
// optional; "host:port" is normalized to http).
func NewWorker(url string, opts ...WorkerOption) *Worker {
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	w := &Worker{
		base:     strings.TrimRight(url, "/"),
		name:     "worker",
		client:   &http.Client{},
		attempts: retryAttempts,
	}
	for _, o := range opts {
		o(w)
	}
	// FNV-1a of the (option-final) name seeds the jitter stream.
	h := fnv.New64a()
	h.Write([]byte(w.name)) // a hash.Hash's Write never fails
	w.jstate.Store(h.Sum64())
	return w
}

// jitter scales d by a factor in [0.75, 1.25) drawn from the worker's
// jitter stream (splitmix64: an atomic Gamma step, then a local mix).
func (w *Worker) jitter(d time.Duration) time.Duration {
	u := detmath.Unit(detmath.Mix(w.jstate.Add(detmath.Gamma) - detmath.Gamma))
	return time.Duration(float64(d) * (0.75 + float64(0.5*u)))
}

func (w *Worker) log(format string, args ...any) {
	if w.logf != nil {
		w.logf(format, args...)
	}
}

// Run executes the worker loop until the sweep drains, the context is
// cancelled, or the coordinator becomes unreachable. A Worker runs one
// loop at a time.
func (w *Worker) Run(ctx context.Context) error {
	// The manifest fetch retries like any request, so a worker started
	// moments before its coordinator (the two-terminal quickstart, the
	// CI e2e job) syncs up instead of dying.
	var m core.SweepManifest
	if err := w.retryTransient(ctx, "manifest fetch", func() error {
		return w.call(ctx, PathManifest, nil, &m)
	}); err != nil {
		return fmt.Errorf("coord: fetching the manifest from %s: %w", w.base, err)
	}
	spec, err := m.SweepSpec()
	if err != nil {
		return fmt.Errorf("coord: manifest grid: %w", err)
	}
	sweep, err := core.NewSweep(spec)
	if err != nil {
		return fmt.Errorf("coord: re-expanding manifest grid: %w", err)
	}
	cells := sweep.Cells()
	arena := core.NewArena()

	for {
		var lease LeaseResponse
		err := w.retryTransient(ctx, "lease request", func() error {
			return w.call(ctx, PathLease, LeaseRequest{Worker: w.name}, &lease)
		})
		if err == nil {
			switch lease.Status {
			case StatusDone:
				w.log("%s: sweep drained, exiting\n", w.name)
				return nil
			case StatusWait:
				continue // held as long as the coordinator would: ask again
			}
			if lease.Cell < 0 || lease.Cell >= len(cells) {
				return fmt.Errorf("coord: leased cell index %d outside local grid of %d cells", lease.Cell, len(cells))
			}
			cell := cells[lease.Cell]
			// Cross-check the local expansion against the grant: a
			// registry or version skew must fail loudly here, before any
			// compute, not surface as a mislabeled result.
			if cell.Name() != lease.Name || cell.Seed != lease.Seed {
				return fmt.Errorf("coord: grid skew: coordinator leased %s seed %d, local expansion has %s seed %d at index %d",
					lease.Name, lease.Seed, cell.Name(), cell.Seed, lease.Cell)
			}
			var vetoed bool
			if vetoed, err = w.runCell(ctx, arena, sweep, cell, lease); vetoed {
				w.log("%s: exiting before upload of %s (fault injection)\n", w.name, cell.Name())
				return nil
			}
		}
		// The coordinator answers every live worker done before it exits,
		// so one still gone after the transient-retry budget crashed, or
		// counts this worker dead by the lease rule (a straggler whose
		// cell was re-dispatched and the sweep finished without it). The
		// sweep is not this worker's to finish: exit cleanly.
		if isUnreachableErr(err) {
			w.log("%s: coordinator gone (%v); exiting\n", w.name, err)
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// runCell computes one leased cell with heartbeats and uploads it.
// vetoed reports that the BeforeUpload hook stopped the upload, and the
// worker with it.
func (w *Worker) runCell(ctx context.Context, arena *core.Arena, sweep *core.Sweep, cell core.Cell, lease LeaseResponse) (vetoed bool, err error) {
	stop := w.startHeartbeats(ctx, lease)
	start := time.Now()
	// The arena-owned result is enough: it is encoded and uploaded
	// before this worker's next Run recycles it.
	res, err := arena.Run(sweep.Config(cell.Index))
	wall := time.Since(start)
	stop()
	if err != nil {
		return false, fmt.Errorf("coord: cell %s: %w", cell.Name(), err)
	}
	if w.beforeUpload != nil && !w.beforeUpload(cell) {
		return true, nil
	}
	payload, err := core.NewCellSnapshot(cell, res).AppendContainer(w.payload[:0])
	if err != nil {
		return false, fmt.Errorf("coord: cell %s: encoding snapshot: %w", cell.Name(), err)
	}
	// The buffer is kept for the next cell only once the uploads below
	// are answered 200, which the coordinator sends after reading the
	// whole body; a return before that leaves the next cell a fresh one,
	// because a failed attempt's transport may still be reading this.
	w.payload = nil
	uploads := 1
	if w.duplicate {
		uploads = 2
	}
	path := fmt.Sprintf("%s?cell=%d&wall=%d", PathComplete, cell.Index, wall.Milliseconds())
	for i := 0; i < uploads; i++ {
		var cr CompleteResponse
		err := w.retryTransient(ctx, "upload of "+cell.Name(), func() error {
			return w.call(ctx, path, payload, &cr)
		})
		if err != nil {
			return false, fmt.Errorf("coord: upload of %s: %w", cell.Name(), err)
		}
		w.log("%s: cell %s done in %v (duplicate=%v)\n", w.name, cell.Name(), wall.Round(time.Millisecond), cr.Duplicate)
	}
	w.payload = payload
	return false, nil
}

// httpStatusError is a non-200 reply carried typed, so retry logic can
// distinguish transient coordinator-side trouble (a 5xx from the
// coordinator or an intermediate proxy) from deliberate rejections (a
// 400 bad snapshot, a 410 revoked lease).
type httpStatusError struct {
	code int
	msg  string
}

func (e *httpStatusError) Error() string { return e.msg }

// isTransportErr reports whether err is a network-level failure (as
// opposed to an HTTP-level rejection, which arrives as a status code):
// connection refused, reset, or EOF from a closed listener.
func isTransportErr(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ue *url.Error
	return errors.As(err, &ue)
}

// isTransientErr reports whether err is worth retrying with backoff: a
// transport failure or a 5xx reply. 4xx rejections are final.
func isTransientErr(err error) bool {
	var he *httpStatusError
	if errors.As(err, &he) {
		return he.code >= 500
	}
	return isTransportErr(err)
}

// isUnreachableErr reports whether err means the coordinator could not
// be reached at all: a transport failure, or a gateway status from a
// proxy fronting a dead backend (502/503/504). The coordinator's own
// handlers never emit 5xx, so a gateway status is an intermediary
// talking, not the coordinator — behind a proxy, "coordinator gone"
// arrives as a 502 rather than a connection refusal.
func isUnreachableErr(err error) bool {
	var he *httpStatusError
	if errors.As(err, &he) {
		return he.code == http.StatusBadGateway ||
			he.code == http.StatusServiceUnavailable ||
			he.code == http.StatusGatewayTimeout
	}
	return isTransportErr(err)
}

// retryTransient runs fn up to retryAttempts times, sleeping a
// jittered, exponentially growing, capped delay between attempts while
// failures stay transient. The terminal error is returned unchanged,
// so callers keep their isUnreachableErr semantics for a coordinator
// that is genuinely gone rather than momentarily unreachable.
func (w *Worker) retryTransient(ctx context.Context, what string, fn func() error) error {
	delay := retryBase
	for attempt := 0; ; attempt++ {
		err := fn()
		if err == nil || !isTransientErr(err) || attempt >= w.attempts-1 {
			return err
		}
		d := w.jitter(delay)
		w.log("%s: %s failed (%v); retrying in %v\n", w.name, what, err, d.Round(time.Millisecond))
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(d):
		}
		if delay *= 2; delay > retryCap {
			delay = retryCap
		}
	}
}

// startHeartbeats renews the lease every TTL/3 until the returned stop
// function is called. A transient failure (5xx, connection error — a
// coordinator restarting or a flaky proxy) keeps the loop ticking: the
// lease may well still be live, and the next tick retries. A rejected
// renewal (410: expired or revoked) stops renewing but does not
// interrupt the cell — the result is still correct and delivery is
// idempotent, so the worker uploads anyway.
func (w *Worker) startHeartbeats(ctx context.Context, lease LeaseResponse) (stop func()) {
	if w.noHeartbeat {
		return func() {}
	}
	interval := time.Duration(lease.TTLMillis) * time.Millisecond / 3
	if interval <= 0 {
		interval = DefaultLeaseTTL / 3
	}
	hbCtx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
			}
			var resp RenewResponse
			err := w.call(hbCtx, PathRenew, RenewRequest{Lease: lease.Lease}, &resp)
			if err != nil {
				if hbCtx.Err() != nil {
					return
				}
				if isTransientErr(err) {
					w.log("%s: heartbeat for lease %d failed (%v); will retry next tick\n", w.name, lease.Lease, err)
					continue
				}
				w.log("%s: heartbeat for lease %d rejected (%v); continuing without it\n", w.name, lease.Lease, err)
				return
			}
		}
	}()
	return func() {
		cancel()
		wg.Wait()
	}
}

// call makes one request to path and decodes a 200 reply's JSON into
// out: a GET when in is nil, else a POST of in — as is when it is a
// snapshot container ([]byte), JSON-encoded otherwise. Any other status
// comes back as an *httpStatusError.
func (w *Worker) call(ctx context.Context, path string, in, out any) error {
	method, body := http.MethodGet, []byte(nil)
	if in != nil {
		method = http.MethodPost
		var ok bool
		if body, ok = in.([]byte); !ok {
			var err error
			if body, err = json.Marshal(in); err != nil {
				return err
			}
		}
	}
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return &httpStatusError{code: resp.StatusCode,
			msg: fmt.Sprintf("coord: %s: %s: %s", path, resp.Status, strings.TrimSpace(string(data)))}
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("coord: %s: decoding reply: %w", path, err)
	}
	return nil
}
