package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/experiment"
	"repro/internal/core"
	"repro/internal/resultstore"
)

// untracedRun is one untraced repetition used as a traced run's
// reference.
type untracedRun struct {
	wall    float64 // seconds
	digest  string
	outcome *sweepOutcome
}

func untracedLocal(g grid, seed uint64, dirs *tempDirs, parallel int) (*untracedRun, error) {
	out, err := dirs.fresh(fmt.Sprintf("untraced-p%d", parallel))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(out)
	t0 := time.Now()
	o, err := runLocal(g, seed, out, parallel)
	if err != nil {
		return nil, err
	}
	u := &untracedRun{wall: time.Since(t0).Seconds(), outcome: o}
	u.digest, err = mergedDigest(out)
	return u, err
}

// walkStats is what one step-by-step walk of the grid collects beside
// its spans.
type walkStats struct {
	wall         float64
	digest       string
	cells        int
	routeChanges int64
	snapBytes    int64
	payload      []byte         // the last cell's snapshot container
	lastCfg      core.Config    // and its config, for the parse/restore replays
	group        []*core.Result // one complete group's replica results
}

// walkSweep runs the grid the way Sweep.Run and experiment.Run do, but
// from out here and one step at a time on one goroutine, so that every
// call into a layer is a span: expand, then per cell RunRetained,
// snapshot encode, snapshot write, store row, store append, and a
// MergeResults per completed group; then render, manifest.
func walkSweep(tr *tracer, g grid, seed uint64, out string) (*walkStats, error) {
	ws := &walkStats{}
	t0 := time.Now()
	root := tr.begin("walk", -1, -1)
	defer tr.end(root)

	id := tr.begin("core.sweep_expand", root, -1)
	e, err := experiment.New(g.options(seed)...)
	if err != nil {
		return nil, err
	}
	s, err := e.Sweep()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	st, err := resultstore.Open(resultstore.SegmentPath(out))
	if err != nil {
		return nil, err
	}
	defer st.Close()

	cells := s.Cells()
	results := make([]*core.Result, len(cells))
	merged := make([]*core.Result, s.NumGroups())
	pending := make([]int, s.NumGroups())
	for gi := range pending {
		pending[gi] = len(s.GroupCells(gi))
	}
	arena := core.NewArena()
	var buf []byte
	for i, cell := range cells {
		cid := tr.begin("cell", root, i)

		id = tr.begin("core.cell_retained", cid, i)
		res, err := arena.RunRetained(s.Config(i))
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("cell %s: %w", cell.Name(), err)
		}
		results[i] = res
		ws.cells++
		ws.routeChanges += res.RouteChanges

		id = tr.begin("core.snapshot_encode", cid, i)
		snap := core.NewCellSnapshot(cell, res)
		buf, err = snap.AppendContainer(buf[:0])
		tr.end(id)
		if err != nil {
			return nil, err
		}
		ws.snapBytes += int64(len(buf))

		// WriteFileBuf encodes again before it writes; the write cost is
		// this span minus the encode span.
		id = tr.begin("core.snapshot_write", cid, i)
		buf, err = snap.WriteFileBuf(core.CellSnapshotPath(out, cell.Name()), buf)
		tr.end(id)
		if err != nil {
			return nil, err
		}

		id = tr.begin("core.store_row", cid, i)
		row := core.CellStoreRow(cell, res)
		tr.end(id)
		id = tr.begin("resultstore.append", cid, i)
		err = st.Append(row)
		tr.end(id)
		if err != nil {
			return nil, err
		}

		gi := cell.Group
		if pending[gi]--; pending[gi] == 0 {
			idxs := s.GroupCells(gi)
			group := make([]*core.Result, len(idxs))
			for k, ci := range idxs {
				group[k] = results[ci]
			}
			id = tr.begin("core.merge_results", cid, idxs[0])
			merged[gi], err = core.MergeResults(group)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			id = tr.begin("core.store_row", cid, idxs[0])
			grow := core.GroupStoreRow(cell, merged[gi])
			tr.end(id)
			id = tr.begin("resultstore.append", cid, idxs[0])
			err = st.Append(grow)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			ws.group = group
		}
		tr.end(cid)
	}
	ws.payload = append([]byte(nil), buf...)
	ws.lastCfg = s.Config(len(cells) - 1)

	for gi, m := range merged {
		first := cells[s.GroupCells(gi)[0]]
		wid := tr.begin("merged.write", root, first.Index)
		err := writeGroupOutputs(tr, wid, first.Index,
			filepath.Join(out, core.MergedDirName, first.GroupName()), first.Dataset, m)
		tr.end(wid)
		if err != nil {
			return nil, err
		}
	}
	id = tr.begin("core.manifest_write", root, -1)
	err = s.Manifest(nil, func(c core.Cell) string { return core.CellSnapshotRelPath(c.Name()) }).Write(out)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	ws.wall = time.Since(t0).Seconds()
	ws.digest, err = mergedDigest(out)
	return ws, err
}

// spanMetrics turns the walk's spans into per-layer metrics.
func spanMetrics(m map[string]float64, spans []span, ws *walkStats) {
	med := spanMedians(spans)
	m["core.sweep_expand_ms"] = ms(med["core.sweep_expand"])
	m["core.cell_retained_ms"] = ms(med["core.cell_retained"])
	m["core.snapshot_encode_ms"] = ms(med["core.snapshot_encode"])
	if w := med["core.snapshot_write"] - med["core.snapshot_encode"]; w > 0 {
		m["core.snapshot_write_ms"] = ms(w)
	}
	m["core.snapshot_kb"] = float64(ws.snapBytes) / float64(ws.cells) / 1e3
	m["core.store_row_us"] = us(med["core.store_row"])
	m["resultstore.append_us"] = us(med["resultstore.append"])
	m["core.manifest_write_ms"] = ms(med["core.manifest_write"])
	m["route.route_changes"] = float64(ws.routeChanges)
	// Rendering is several spans per merged group; report the median
	// per-group total.
	perGroup := map[[2]int]float64{}
	for i := range spans {
		if spans[i].Name == "analysis.render" {
			perGroup[[2]int{spans[i].Parent, spans[i].Cell}] += spans[i].dur().Seconds()
		}
	}
	var totals []float64
	for _, v := range perGroup {
		totals = append(totals, v)
	}
	m["analysis.render_ms"] = median(totals) * 1e3
}

// coveragePct is Σ self-times of every span but the roots (and spans
// of the tracing's own work, named "trace.*"), over the untraced wall
// of the same work on the same number of lanes.
func coveragePct(spans []span, roots string, lanes int, untracedWall float64, walks int) float64 {
	self := selfTimes(spans)
	var sum time.Duration
	for i := range spans {
		if spans[i].Name != roots && !strings.HasPrefix(spans[i].Name, "trace.") {
			sum += self[i]
		}
	}
	return 100 * sum.Seconds() / float64(walks) / (float64(lanes) * untracedWall)
}

// probeSnapshotCodec replays the coordinator's side of a delivery —
// parse the container, restore it against the grid's Config — and the
// replica merge at 8 and 64 replicas.
func probeSnapshotCodec(m map[string]float64, ws *walkStats) error {
	var snap *core.CellSnapshot
	var err error
	m["core.snapshot_parse_ms"] = ms(timeMedian(9, func() {
		snap, err = core.ParseCellSnapshot(ws.payload)
	}))
	if err != nil {
		return err
	}
	m["core.restore_ms"] = ms(timeMedian(9, func() { _, err = snap.Restore(ws.lastCfg) }))
	if err != nil {
		return err
	}
	for _, n := range []int{8, 64} {
		rs := make([]*core.Result, n)
		for i := range rs {
			rs[i] = ws.group[i%len(ws.group)]
		}
		m[fmt.Sprintf("core.merge_results_%d_ms", n)] = ms(timeMedian(3, func() {
			_, err = core.MergeResults(rs)
		}))
		if err != nil {
			return err
		}
	}
	return nil
}

// traceSweep is the -trace run of paper_sweep and
// stream_scenario_sweep.
func traceSweep(e *env, name string) (*result, error) {
	g := sizedGrid(e, name)
	dirs := &tempDirs{root: e.work}
	defer dirs.removeAll()
	res := newResult(name, true)
	m := res.metrics
	start := time.Now()

	// The workload as the end-to-end run drives it (two goroutines), for
	// the digest and the driver's own overhead and speed-up.
	p2, err := untracedLocal(g, e.seed, dirs, clients)
	if err != nil {
		return nil, err
	}
	res.digest = p2.digest
	var compute time.Duration
	for i := range p2.outcome.res.Cells {
		compute += p2.outcome.res.Cells[i].Wall
	}
	m["experiment.overhead_pct"] = 100 * (p2.wall - compute.Seconds()/clients) / p2.wall

	// Then the walk and its untraced twin — the same grid on one
	// goroutine — alternating, so the box's drift lands on both sides of
	// the overhead and coverage ratios alike.
	tr := newTracer()
	var plain, walks []float64
	var ws *walkStats
	for len(walks) == 0 || (!e.tiny && time.Since(start).Seconds() < e.seconds) {
		p1, err := untracedLocal(g, e.seed, dirs, 1)
		if err != nil {
			return nil, err
		}
		plain = append(plain, p1.wall)
		out, err := dirs.fresh("walk")
		if err != nil {
			return nil, err
		}
		if ws, err = walkSweep(tr, g, e.seed, out); err != nil {
			return nil, err
		}
		walks = append(walks, ws.wall)
		res.attempted += ws.cells
		if ws.digest != p2.digest || p1.digest != p2.digest {
			res.fail("step-by-step walk digests %s, Parallel(1) %s, Parallel(%d) %s", ws.digest, p1.digest, clients, p2.digest)
			res.failed += ws.cells
		}
	}
	untraced := median(plain)
	m["experiment.speedup_2w"] = untraced / p2.wall
	// Unit costs first; the walk's own spans then overwrite what both
	// measure (cell_retained_ms from 32 cells beats the probe's one).
	u := probeUnits(m, ws.lastCfg, true)
	if err := probeCells(m, ws.lastCfg, u, 5); err != nil {
		return nil, err
	}
	if err := probeSnapshotCodec(m, ws); err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	spanMetrics(m, spans, ws)
	m["trace.coverage_pct"] = coveragePct(spans, "walk", 1, untraced, len(walks))
	m["trace.overhead_pct"] = 100 * (median(walks) - untraced) / untraced
	res.note("untraced wall %.3f s on %d goroutines; %d untraced one-goroutine runs and traced walks alternating: median %.3f s untraced, %.3f s traced; %d spans",
		p2.wall, clients, len(walks), untraced, median(walks), len(spans))
	return res, writeSpans(e, res, tr)
}
