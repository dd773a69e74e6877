package core

import (
	"strings"
	"testing"
)

// shardSpec is the grid shared by the distributed-sweep tests: two grid
// points (hysteresis 0 and 0.25) with two replicas each.
func shardSpec() SweepSpec {
	return SweepSpec{
		Datasets: []Dataset{RONnarrow},
		Days:     sweepDays,
		BaseSeed: 21,
		Replicas: 2,
		Axes:     []Axis{HysteresisAxis(0, 0.25)},
	}
}

// snapshotCells persists every completed cell of a sweep result the way
// ronsim does, returning the output directory.
func snapshotCells(t *testing.T, dir string, res *SweepResult) {
	t.Helper()
	for i := range res.Cells {
		c := &res.Cells[i]
		if c.Res == nil {
			continue
		}
		snap := NewCellSnapshot(c.Cell, c.Res)
		if _, err := snap.WriteFileBuf(CellSnapshotPath(dir, c.Cell.Name()), nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedSweepByteIdentical is the acceptance test for distributable
// sweeps: a grid run as two disjoint -cells shards, persisted to
// snapshots, and recombined through the snapshot path must render
// merged tables byte-identical to a single-machine run.
func TestShardedSweepByteIdentical(t *testing.T) {
	single := runSweep(t, shardSpec())

	dir := t.TempDir()
	for _, shard := range []string{"*-r00", "*-r01"} {
		f, err := ParseCellFilter(shard)
		if err != nil {
			t.Fatal(err)
		}
		spec := shardSpec()
		spec.Filter = f.Match
		res := runSweep(t, spec)
		if res.Selected != 2 {
			t.Fatalf("shard %s selected %d cells, want 2", shard, res.Selected)
		}
		for gi := range res.Groups {
			if res.Groups[gi].Complete() {
				t.Errorf("shard %s: group %s complete with half its replicas",
					shard, res.Groups[gi].Name())
			}
			if res.Groups[gi].Hosts == 0 || len(res.Groups[gi].Methods) == 0 {
				t.Errorf("shard %s: incomplete group lost its hosts/methods metadata", shard)
			}
		}
		snapshotCells(t, dir, res)
	}

	// Coordinator: rebuild each grid point from the union of snapshots,
	// exactly as merge-only mode does — the grid re-expanded from the
	// manifest, every cell read through the admission check.
	s, err := single.Manifest(nil, nil).Sweep(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for gi := range single.Groups {
		g := &single.Groups[gi]
		var results []*Result
		for _, c := range g.Cells {
			res, err := s.ReadCell(c.Cell.Index, dir)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
		merged, err := MergeResults(results)
		if err != nil {
			t.Fatal(err)
		}
		reassembled := GroupResult{Cells: g.Cells, Merged: merged}
		if got, want := renderGroup(&reassembled), renderGroup(g); got != want {
			t.Errorf("group %s: sharded+snapshot tables differ from single run\nsharded:\n%s\nsingle:\n%s",
				g.Name(), got, want)
		}
		if merged.MeasureProbes != g.Merged.MeasureProbes ||
			merged.RONProbes != g.Merged.RONProbes ||
			merged.RouteChanges != g.Merged.RouteChanges {
			t.Errorf("group %s: merged counters differ after snapshot round trip", g.Name())
		}
	}
}

// TestSweepResumeSkipsCompletedCells is the resume-after-kill test: a
// partial run (one shard, simulating a sweep killed midway) persists
// snapshots; a resumed full run must reuse them without recomputing,
// and produce merged tables byte-identical to an uninterrupted run.
func TestSweepResumeSkipsCompletedCells(t *testing.T) {
	clean := runSweep(t, shardSpec())

	dir := t.TempDir()
	f, err := ParseCellFilter("*-r00")
	if err != nil {
		t.Fatal(err)
	}
	partial := shardSpec()
	partial.Filter = f.Match
	pres := runSweep(t, partial)
	snapshotCells(t, dir, pres)

	resumed := shardSpec()
	recomputed := 0
	resumed.Resume = dir
	resumed.Warnf = func(format string, args ...any) {
		t.Errorf("snapshot rejected by its own grid: "+format, args...)
	}
	resumed.Progress = func(r CellResult) {
		if !r.Cached {
			recomputed++
		}
	}
	rres := runSweep(t, resumed)
	if rres.Reused != 2 {
		t.Errorf("resume reused %d cells, want 2", rres.Reused)
	}
	if recomputed != 2 {
		t.Errorf("resume recomputed %d cells, want 2 (the missing replicas)", recomputed)
	}
	for i := range rres.Cells {
		want := strings.HasSuffix(rres.Cells[i].Cell.Name(), "-r00")
		if rres.Cells[i].Cached != want {
			t.Errorf("cell %s: Cached = %v, want %v",
				rres.Cells[i].Cell.Name(), rres.Cells[i].Cached, want)
		}
	}
	if len(rres.Groups) != len(clean.Groups) {
		t.Fatalf("group counts differ: %d vs %d", len(rres.Groups), len(clean.Groups))
	}
	for gi := range clean.Groups {
		if !rres.Groups[gi].Complete() {
			t.Fatalf("group %s incomplete after resume", rres.Groups[gi].Name())
		}
		if got, want := renderGroup(&rres.Groups[gi]), renderGroup(&clean.Groups[gi]); got != want {
			t.Errorf("group %s: resumed tables differ from uninterrupted run", clean.Groups[gi].Name())
		}
	}
}

// TestSweepFilterSelectsNothing: an all-dead filter is an error, not an
// empty success.
func TestSweepFilterSelectsNothing(t *testing.T) {
	spec := shardSpec()
	spec.Filter = func(Cell) bool { return false }
	s, err := NewSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Error("sweep with an empty selection succeeded")
	}
}

// TestMergeResultsValidates covers the exported merge path's edges.
func TestMergeResultsValidates(t *testing.T) {
	if _, err := MergeResults(nil); err == nil {
		t.Error("MergeResults accepted an empty slice")
	}
	res := runSweep(t, SweepSpec{Datasets: []Dataset{RONnarrow}, Days: sweepDays, Replicas: 2})
	merged, err := MergeResults([]*Result{res.Cells[0].Res, res.Cells[1].Res})
	if err != nil {
		t.Fatal(err)
	}
	if merged.MergedReplicas != 2 {
		t.Errorf("MergedReplicas = %d, want 2", merged.MergedReplicas)
	}
	if want := res.Cells[0].Res.MeasureProbes + res.Cells[1].Res.MeasureProbes; merged.MeasureProbes != want {
		t.Errorf("merged MeasureProbes = %d, want %d", merged.MeasureProbes, want)
	}
}
