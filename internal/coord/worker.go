package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Worker retry policy: transient failures (a coordinator restarting
// mid-sweep, a flaky proxy in between) are retried with exponential
// backoff from retryBase, capped at retryCap, for at most
// retryAttempts tries per request. The same cap bounds the idle
// wait-loop's growth between lease asks.
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
		base:   strings.TrimRight(url, "/"),
		name:   "worker",
		client: &http.Client{},
	}
	for _, o := range opts {
		o(w)
	}
	// FNV-1a of the (option-final) name seeds the jitter stream.
	seed := uint64(14695981039346656037)
	for i := 0; i < len(w.name); i++ {
		seed ^= uint64(w.name[i])
		seed *= 1099511628211
	}
	w.jstate.Store(seed)
	return w
}

// jitter scales d by a factor in [0.75, 1.25) drawn from the worker's
// jitter stream (splitmix64: an atomic add, then a local mix).
func (w *Worker) jitter(d time.Duration) time.Duration {
	z := w.jstate.Add(0x9E3779B97F4A7C15)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	u := float64(z>>11) / (1 << 53)
	return time.Duration(float64(d) * (0.75 + 0.5*u))
}

// waitBackoff doubles the coordinator's retry hint once per
// consecutive wait, capped at retryCap: near the end of a sweep every
// idle worker polls for the few in-flight cells, and without backoff
// that tail is a thundering herd.
func waitBackoff(hint time.Duration, waits int) time.Duration {
	d := hint
	for i := 0; i < waits && d < retryCap; i++ {
		d *= 2
	}
	if d > retryCap {
		d = retryCap
	}
	return d
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
	m, err := w.fetchManifest(ctx)
	if err != nil {
		return err
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

	waits := 0
	for {
		lease, err := w.lease(ctx)
		if err != nil {
			// The coordinator exits the moment the sweep drains, so a
			// worker mid-poll races its shutdown; a vanished coordinator
			// — still gone after the transient-retry budget — is the
			// normal end of a fleet's life, not a worker failure.
			if isUnreachableErr(err) {
				w.log("%s: coordinator gone (%v); exiting\n", w.name, err)
				return nil
			}
			return err
		}
		switch lease.Status {
		case StatusDone:
			w.log("%s: sweep drained, exiting\n", w.name)
			return nil
		case StatusWait:
			// Honor the coordinator's hint on the first ask, then back
			// off exponentially (capped, jittered) while consecutive
			// waits pile up.
			retry := time.Duration(lease.RetryMillis) * time.Millisecond
			if retry <= 0 {
				retry = time.Second
			}
			retry = w.jitter(waitBackoff(retry, waits))
			waits++
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(retry):
			}
			continue
		}
		waits = 0
		if lease.Cell < 0 || lease.Cell >= len(cells) {
			return fmt.Errorf("coord: leased cell index %d outside local grid of %d cells", lease.Cell, len(cells))
		}
		cell := cells[lease.Cell]
		// Cross-check the local expansion against the grant: a registry
		// or version skew must fail loudly here, before any compute, not
		// surface as a mislabeled result.
		if cell.Name() != lease.Name || cell.Seed != lease.Seed {
			return fmt.Errorf("coord: grid skew: coordinator leased %s seed %d, local expansion has %s seed %d at index %d",
				lease.Name, lease.Seed, cell.Name(), cell.Seed, lease.Cell)
		}
		killed, err := w.runCell(ctx, arena, sweep, cell, lease)
		if err != nil {
			return err
		}
		if killed {
			w.log("%s: exiting before upload of %s (fault injection)\n", w.name, cell.Name())
			return nil
		}
	}
}

// runCell computes one leased cell with heartbeats and uploads it.
// killed reports that the BeforeUpload hook vetoed the upload and the
// worker should exit.
func (w *Worker) runCell(ctx context.Context, arena *core.Arena, sweep *core.Sweep, cell core.Cell, lease LeaseResponse) (killed bool, err error) {
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
	for i := 0; i < uploads; i++ {
		var dup bool
		err := w.retryTransient(ctx, "upload of "+cell.Name(), func() (err error) {
			dup, err = w.upload(ctx, cell, payload, wall)
			return err
		})
		if err != nil {
			// A straggler's late delivery can land after the re-dispatched
			// copy completed the sweep and the coordinator shut down; its
			// result was redundant by construction, so exit cleanly.
			if isUnreachableErr(err) {
				w.log("%s: coordinator gone before upload of %s (%v); exiting\n", w.name, cell.Name(), err)
				return true, nil
			}
			return false, err
		}
		w.log("%s: cell %s done in %v (duplicate=%v)\n", w.name, cell.Name(), wall.Round(time.Millisecond), dup)
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
		if err == nil || !isTransientErr(err) || attempt == retryAttempts-1 {
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
			err := w.postJSON(hbCtx, PathRenew, RenewRequest{Lease: lease.Lease}, &resp)
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

// fetchManifest GETs the grid manifest, retrying connection failures
// for ~15s so a worker started moments before its coordinator (the
// two-terminal quickstart, the CI e2e job) syncs up instead of dying.
func (w *Worker) fetchManifest(ctx context.Context) (*core.SweepManifest, error) {
	var lastErr error
	for attempt := 0; attempt < 30; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(500 * time.Millisecond):
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+PathManifest, nil)
		if err != nil {
			return nil, err
		}
		resp, err := w.client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode >= 500 {
			// A proxy fronting a coordinator that has not come up yet;
			// keep trying alongside connection failures.
			lastErr = fmt.Errorf("coord: manifest fetch: %s: %s", resp.Status, strings.TrimSpace(string(body)))
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("coord: manifest fetch: %s: %s", resp.Status, strings.TrimSpace(string(body)))
		}
		var m core.SweepManifest
		if err := json.Unmarshal(body, &m); err != nil {
			return nil, fmt.Errorf("coord: decoding manifest: %w", err)
		}
		return &m, nil
	}
	return nil, fmt.Errorf("coord: coordinator unreachable at %s: %w", w.base, lastErr)
}

// lease POSTs a lease request, riding out transient failures.
func (w *Worker) lease(ctx context.Context) (LeaseResponse, error) {
	var resp LeaseResponse
	err := w.retryTransient(ctx, "lease request", func() error {
		resp = LeaseResponse{}
		return w.postJSON(ctx, PathLease, LeaseRequest{Worker: w.name}, &resp)
	})
	if err != nil {
		return LeaseResponse{}, err
	}
	return resp, nil
}

// upload POSTs a finished cell's snapshot container.
func (w *Worker) upload(ctx context.Context, cell core.Cell, payload []byte, wall time.Duration) (duplicate bool, err error) {
	url := fmt.Sprintf("%s%s?cell=%d&wall=%d", w.base, PathComplete, cell.Index, wall.Milliseconds())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := w.client.Do(req)
	if err != nil {
		return false, fmt.Errorf("coord: uploading cell %s: %w", cell.Name(), err)
	}
	body, readErr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if readErr != nil {
		return false, readErr
	}
	if resp.StatusCode != http.StatusOK {
		return false, &httpStatusError{code: resp.StatusCode,
			msg: fmt.Sprintf("coord: uploading cell %s: %s: %s", cell.Name(), resp.Status, strings.TrimSpace(string(body)))}
	}
	var cr CompleteResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		return false, fmt.Errorf("coord: decoding complete response: %w", err)
	}
	return cr.Duplicate, nil
}

// postJSON POSTs v to path and decodes the JSON reply into out.
func (w *Worker) postJSON(ctx context.Context, path string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	data, readErr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if readErr != nil {
		return readErr
	}
	if resp.StatusCode != http.StatusOK {
		return &httpStatusError{code: resp.StatusCode,
			msg: fmt.Sprintf("coord: %s: %s: %s", path, resp.Status, strings.TrimSpace(string(data)))}
	}
	return json.Unmarshal(data, out)
}
