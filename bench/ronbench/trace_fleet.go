package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/experiment"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/resultstore"
)

// spanHeader carries the worker-side request span's id to the
// coordinator's handler wrapper, so the handler span nests under the
// round trip that caused it and the round trip's self time is the
// transport's share.
const spanHeader = "X-Ronbench-Span"

// timingHandler wraps the coordinator's route tree: one span per
// request, named for the path, parented on the caller's span.
func timingHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent := -1
		if v := r.Header.Get(spanHeader); v != "" {
			if p, err := strconv.Atoi(v); err == nil {
				parent = p
			}
		}
		id := tr.begin("coord"+pathName(r.URL.Path)+"_handler", parent, -1)
		next.ServeHTTP(w, r)
		tr.end(id)
	})
}

// tracedDrain is runFleet with the coordinator assembled out here —
// coord.New, coord.NewServer, an http.Server around the timing handler
// — exactly as experiment.Run's Remote path assembles it, so both ends
// of every request are spans.
func tracedDrain(tr *tracer, g grid, seed uint64, out string) (*core.SweepResult, *fleet, coord.Progress, error) {
	var none coord.Progress
	e, err := experiment.New(g.options(seed)...)
	if err != nil {
		return nil, nil, none, err
	}
	s, err := e.Sweep()
	if err != nil {
		return nil, nil, none, err
	}
	st, err := resultstore.Open(resultstore.SegmentPath(out))
	if err != nil {
		return nil, nil, none, err
	}
	defer st.Close()
	c, err := coord.New(coord.Config{Sweep: s, OutDir: out, Results: st})
	if err != nil {
		return nil, nil, none, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, none, err
	}
	srv := &http.Server{Handler: timingHandler(tr, coord.NewServer(c).Handler())}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	ctx, cancel := context.WithTimeout(context.Background(), fleetTimeout)
	defer cancel()
	fl := startFleet(ctx, ln.Addr().String(), tr)
	var runErr error
	select {
	case <-c.Done():
	case <-ctx.Done():
		runErr = ctx.Err()
	case runErr = <-serveErr:
	}
	progress := c.Snapshot()
	// Same order as experiment.Run: the server shuts down while the
	// workers are still attached, then the caller stops them.
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shutCancel()
	srv.Shutdown(shutCtx)
	if err := fl.stop(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr == nil {
		runErr = c.Err()
	}
	if runErr != nil {
		return nil, nil, none, runErr
	}
	res := c.Result()
	id := tr.begin("merged.write", -1, -1)
	err = writeMerged(out, res)
	tr.end(id)
	if err != nil {
		return nil, nil, none, err
	}
	id = tr.begin("core.manifest_write", -1, -1)
	err = res.Manifest(nil, func(c core.Cell) string { return core.CellSnapshotRelPath(c.Name()) }).Write(out)
	tr.end(id)
	return res, fl, progress, err
}

// probeRenew measures the heartbeat round trip, which a seconds-long
// drain under the default one-minute lease never makes: lease one cell
// of a small grid from a real coordinator and renew it n times.
func probeRenew(g grid, seed uint64, n int) (time.Duration, error) {
	e, err := experiment.New(g.options(seed)...)
	if err != nil {
		return 0, err
	}
	s, err := e.Sweep()
	if err != nil {
		return 0, err
	}
	c, err := coord.New(coord.Config{Sweep: s})
	if err != nil {
		return 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv := &http.Server{Handler: coord.NewServer(c).Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	base := "http://" + ln.Addr().String()
	post := func(path string, in, out any) error {
		body, err := json.Marshal(in)
		if err != nil {
			return err
		}
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: %s", path, resp.Status)
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
	var lease coord.LeaseResponse
	if err := post(coord.PathLease, coord.LeaseRequest{Worker: "bench-renew"}, &lease); err != nil {
		return 0, err
	}
	d := make([]float64, n)
	for i := range d {
		var rr coord.RenewResponse
		t0 := time.Now()
		if err := post(coord.PathRenew, coord.RenewRequest{Lease: lease.Lease}, &rr); err != nil {
			return 0, err
		}
		d[i] = time.Since(t0).Seconds()
	}
	return time.Duration(median(d) * float64(time.Second)), nil
}

// traceFleet is the -trace run of fleet_drain.
func traceFleet(e *env, name string) (*result, error) {
	g := sizedGrid(e, name)
	dirs := &tempDirs{root: e.work}
	defer dirs.removeAll()
	res := newResult(name, true)
	m := res.metrics
	start := time.Now()

	// Untraced and traced drains alternate, so the box's drift lands on
	// both sides of the overhead and coverage ratios alike.
	tr := newTracer()
	var plain, drains []float64
	var idle, lifetimes time.Duration
	var uploadBytes int64
	var completes int
	for len(drains) == 0 || (!e.tiny && time.Since(start).Seconds() < e.seconds) {
		// Untraced: the drain as the end-to-end run drives it.
		out, err := dirs.fresh("untraced")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, _, err := runFleet(g, e.seed, out); err != nil {
			return nil, err
		}
		plain = append(plain, time.Since(t0).Seconds())
		want, err := mergedDigest(out)
		if err != nil {
			return nil, err
		}
		if res.digest == "" {
			res.digest = want
		}

		if out, err = dirs.fresh("drain"); err != nil {
			return nil, err
		}
		t0 = time.Now()
		sres, fl, progress, err := tracedDrain(tr, g, e.seed, out)
		if err != nil {
			return nil, err
		}
		drains = append(drains, time.Since(t0).Seconds())
		_, done, rejected, bytes := fl.tally()
		cells, failed, _ := fleetFailures(sres, done, rejected)
		res.attempted += cells
		res.failed += failed
		completes += done
		uploadBytes += bytes
		m["coord.redispatched"] += float64(progress.RedispatchedLeases)
		m["coord.rejected_uploads"] += float64(rejected)
		for i, t := range fl.transports {
			idle += t.waiting
			lifetimes += fl.lifetimes[i]
		}
		digest, err := mergedDigest(out)
		if err != nil {
			return nil, err
		}
		if digest != res.digest || want != res.digest {
			res.fail("traced drain digests %s, untraced drains %s and %s", digest, want, res.digest)
			res.failed += cells
		}
		for i := range sres.Cells {
			m["route.route_changes"] += float64(sres.Cells[i].Res.RouteChanges)
		}
	}
	untraced := median(plain)
	m["route.route_changes"] /= float64(len(drains))

	spans := tr.snapshot()
	med := spanMedians(spans)
	m["coord.lease_rtt_us"] = us(med["coord.lease_rtt"])
	m["coord.complete_rtt_ms"] = ms(med["coord.complete_rtt"])
	m["coord.complete_handler_ms"] = ms(med["coord.complete_handler"])
	m["core.manifest_write_ms"] = ms(med["core.manifest_write"])
	m["coord.upload_kb"] = float64(uploadBytes) / float64(completes) / 1e3
	m["coord.worker_idle_pct"] = 100 * idle.Seconds() / lifetimes.Seconds()
	m["trace.coverage_pct"] = coveragePct(spans, "", clients, untraced, len(drains))
	m["trace.overhead_pct"] = 100 * (median(drains) - untraced) / untraced
	res.note("%d untraced and traced drains alternating: median %.3f s untraced, %.3f s traced; %d spans; transport share of a complete = complete_rtt − complete_handler",
		len(drains), untraced, median(drains), len(spans))

	// The layers under the coordinator's completion path, replayed on
	// the drain's own cells: a step-by-step walk of the same grid at two
	// replicas gives the snapshot, store and merge costs a drain pays per
	// cell, and the heartbeat probe leases one of its cells.
	short := g
	short.replicas = 2
	renew, err := probeRenew(short, e.seed, 200)
	if err != nil {
		return nil, err
	}
	m["coord.renew_rtt_us"] = us(renew)
	cellsN := res.attempted / len(drains)
	q := coord.NewLeaseQueue(cellsN, 0, nil)
	m["coord.queue_grant_us"] = perCallNS(cellsN, func(int) { q.Grant("bench") }) / 1e3

	wout, err := dirs.fresh("walk")
	if err != nil {
		return nil, err
	}
	wtr := newTracer()
	ws, err := walkSweep(wtr, short, e.seed, wout)
	if err != nil {
		return nil, err
	}
	wm := map[string]float64{}
	spanMetrics(wm, wtr.snapshot(), ws)
	for _, k := range []string{"core.sweep_expand_ms", "core.snapshot_encode_ms", "core.snapshot_write_ms",
		"core.snapshot_kb", "core.store_row_us", "resultstore.append_us"} {
		m[k] = wm[k]
	}
	if err := probeSnapshotCodec(m, ws); err != nil {
		return nil, err
	}
	u := probeUnits(m, ws.lastCfg, true)
	if err := probeCells(m, ws.lastCfg, u, 5); err != nil {
		return nil, err
	}
	return res, writeSpans(e, res, tr)
}
