package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/experiment"
	"repro/internal/coord"
	"repro/internal/core"
)

// fleetTimeout bounds one fleet drain; the grid takes seconds, so
// hitting it means a worker or the coordinator hung.
const fleetTimeout = 150 * time.Second

// workerTransport is the benchmark's view of one fleet worker's HTTP
// traffic: it times each cell from the lease reply that granted it to
// the acknowledged /complete, counts uploads, and — on traced runs —
// records a span per request. One instance serves one worker over one
// connection.
type workerTransport struct {
	base http.RoundTripper
	tr   *tracer

	mu          sync.Mutex
	leaseAt     time.Time // when the latest /lease reply arrived
	gapSpan     int       // open span since that reply (traced runs)
	cells       []float64 // grant → acknowledged complete, seconds
	completes   int       // /complete requests acknowledged with 200
	rejected    int       // /complete requests refused
	uploadBytes int64
	waiting     time.Duration // time spent inside requests
}

func newWorkerTransport(tr *tracer) *workerTransport {
	return &workerTransport{
		base:    &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		tr:      tr,
		gapSpan: -1,
	}
}

func (t *workerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	if t.tr != nil && (path == coord.PathLease || path == coord.PathComplete) {
		// The stretch since the last lease reply was the worker's own:
		// computing and encoding a cell if an upload follows, waiting
		// for work if it asks again.
		t.mu.Lock()
		gap := t.gapSpan
		t.gapSpan = -1
		t.mu.Unlock()
		if path == coord.PathComplete {
			t.tr.endAs(gap, "coord.worker_cell")
		} else {
			t.tr.endAs(gap, "coord.worker_wait")
		}
	}
	id := t.tr.begin("coord"+pathName(path)+"_rtt", -1, -1)
	if id >= 0 {
		// RoundTrip must not modify the caller's request.
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.Itoa(id))
	}
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	now := time.Now()
	t.tr.end(id)

	t.mu.Lock()
	defer t.mu.Unlock()
	t.waiting += now.Sub(t0)
	switch path {
	case coord.PathLease:
		t.leaseAt = now
		t.gapSpan = t.tr.begin("coord.worker_gap", -1, -1)
	case coord.PathComplete:
		if req.ContentLength > 0 {
			t.uploadBytes += req.ContentLength
		}
		switch {
		case err != nil:
		case resp.StatusCode == http.StatusOK:
			t.completes++
			t.cells = append(t.cells, now.Sub(t.leaseAt).Seconds())
		default:
			t.rejected++
		}
	}
	return resp, err
}

// pathName turns "/complete" into ".complete" for span names.
func pathName(path string) string { return strings.ReplaceAll(path, "/", ".") }

func (t *workerTransport) closeIdle() {
	if c, ok := t.base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// fleet is the two workers of one drain.
type fleet struct {
	transports []*workerTransport
	cancel     context.CancelFunc
	wg         sync.WaitGroup
	errs       []error
	lifetimes  []time.Duration
}

// startFleet joins `clients` workers to the coordinator at addr.
func startFleet(ctx context.Context, addr string, tr *tracer) *fleet {
	ctx, cancel := context.WithCancel(ctx)
	f := &fleet{cancel: cancel, errs: make([]error, clients), lifetimes: make([]time.Duration, clients)}
	for i := 0; i < clients; i++ {
		t := newWorkerTransport(tr)
		f.transports = append(f.transports, t)
		w := coord.NewWorker(addr,
			coord.WithName(fmt.Sprintf("bench-w%d", i)),
			coord.WithHTTPClient(&http.Client{Transport: t}))
		f.wg.Add(1)
		go func(i int) {
			defer f.wg.Done()
			t0 := time.Now()
			f.errs[i] = w.Run(ctx)
			f.lifetimes[i] = time.Since(t0)
		}(i)
	}
	return f
}

// stop ends the workers (one is usually parked in its wait-for-lease
// back-off when the grid drains) and returns the first real error.
func (f *fleet) stop() error {
	f.cancel()
	f.wg.Wait()
	for _, t := range f.transports {
		t.closeIdle()
	}
	for _, err := range f.errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
	}
	return nil
}

// tally sums the workers' views.
func (f *fleet) tally() (cells []float64, completes, rejected int, uploadBytes int64) {
	for _, t := range f.transports {
		cells = append(cells, t.cells...)
		completes += t.completes
		rejected += t.rejected
		uploadBytes += t.uploadBytes
	}
	return
}

// runFleet drains the grid through experiment.Run's coordinator and two
// in-process workers, through to merged tables and manifest on disk.
func runFleet(g grid, seed uint64, out string) (*sweepOutcome, *fleet, error) {
	ctx, cancel := context.WithTimeout(context.Background(), fleetTimeout)
	defer cancel()
	var fl *fleet
	opts := append(g.options(seed),
		experiment.Output(out),
		experiment.Remote("127.0.0.1:0"),
		experiment.RemoteContext(ctx),
		experiment.RemoteReady(func(addr string) { fl = startFleet(ctx, addr, nil) }),
	)
	e, err := experiment.New(opts...)
	if err != nil {
		return nil, nil, err
	}
	res, runErr := e.Run()
	if fl != nil {
		if err := fl.stop(); err != nil && runErr == nil {
			runErr = err
		}
	}
	if runErr != nil {
		return nil, nil, runErr
	}
	if err := writeMerged(out, res); err != nil {
		return nil, nil, err
	}
	if err := e.WriteManifest(res, out, nil); err != nil {
		return nil, nil, err
	}
	return &sweepOutcome{res: res}, fl, nil
}

// fleetFailures counts the operations that went wrong in one drain:
// cells that errored, uploads the coordinator refused, and cells
// delivered more than once (a re-dispatched lease).
func fleetFailures(res *core.SweepResult, completes, rejected int) (cells, failed int, probes int64) {
	cells, failed, probes = countOutcome(res)
	failed += rejected
	if extra := completes - cells; extra > 0 {
		failed += extra
	}
	return
}

// fleetWorkload is fleet_drain.
type fleetWorkload struct {
	e    *env
	g    grid
	dirs tempDirs
	// want is the merged digest of one local Parallel(1) run of the
	// same grid, which every drain must reproduce.
	want string
}

// One pass: a whole drain, as long as a timed repetition.
func (w *fleetWorkload) setupCount() int { return 1 }
func (w *fleetWorkload) reps() int       { return minReps }

func (w *fleetWorkload) setup() (time.Duration, error) {
	r, err := w.rep(0)
	return r.wall, err
}

// reference runs the grid locally on one goroutine; it is verification,
// so the harness times it under neither set-up nor a repetition.
func (w *fleetWorkload) reference() error {
	out, err := w.dirs.fresh("reference")
	if err != nil {
		return err
	}
	defer os.RemoveAll(out)
	if _, err := runLocal(w.g, w.e.seed, out, 1); err != nil {
		return err
	}
	w.want, err = mergedDigest(out)
	return err
}

func (w *fleetWorkload) rep(i int) (repResult, error) {
	m := startMeter()
	out, err := w.dirs.fresh(fmt.Sprintf("rep%d", i))
	if err != nil {
		return repResult{}, err
	}
	defer os.RemoveAll(out)
	o, fl, err := runFleet(w.g, w.e.seed, out)
	if err != nil {
		return repResult{}, err
	}
	r := repResult{measured: m.stop()}
	var completes, rejected int
	r.samples, completes, rejected, _ = fl.tally()
	r.ops, r.failed, r.probes = fleetFailures(o.res, completes, rejected)
	if r.digest, err = mergedDigest(out); err != nil {
		return r, err
	}
	r.disk, err = treeBytes(out)
	return r, err
}

func (w *fleetWorkload) finish(res *result, reps []repResult) {
	finishCells(res, reps)
	if err := w.reference(); err != nil {
		res.fail("local Parallel(1) reference run: %v", err)
		return
	}
	if res.digest != w.want {
		res.fail("fleet merged digest %s differs from the local Parallel(1) run's %s", res.digest, w.want)
		res.failed = res.attempted
	}
}

func (w *fleetWorkload) close() { w.dirs.removeAll() }
