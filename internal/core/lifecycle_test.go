package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestLifecycleFoldAnyArrivalOrder lands a 2-group × 8-replica grid's
// cells in replica order, reversed, replica-0-last and 50 seeded
// shuffles. Whatever the order, each group's merged Result must render
// and encode to exactly what MergeResults over the replicas in replica
// order does, and at every step the only cells still holding an
// aggregator are the ones waiting for a predecessor — never more than
// the arrival order's out-of-order window, on top of the one
// accumulator per group.
func TestLifecycleFoldAnyArrivalOrder(t *testing.T) {
	const replicas = 8
	s, err := NewSweep(SweepSpec{
		Datasets: []Dataset{RONnarrow},
		Days:     sweepDays,
		BaseSeed: 11,
		Replicas: replicas,
		Axes:     []Axis{HysteresisAxis(0, 0.25)},
	})
	if err != nil {
		t.Fatal(err)
	}
	cells := s.Cells()
	base := make([]*Result, len(cells))
	arena := NewArena()
	for i := range cells {
		if base[i], err = arena.RunRetained(s.Config(i)); err != nil {
			t.Fatal(err)
		}
	}
	encode := func(r *Result) []byte {
		t.Helper()
		b, err := r.Agg.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	type want struct {
		report string
		bytes  []byte
	}
	wants := make([]want, s.NumGroups())
	for g := range wants {
		var rs []*Result
		for _, i := range s.GroupCells(g) {
			rs = append(rs, base[i])
		}
		m, err := MergeResults(rs)
		if err != nil {
			t.Fatal(err)
		}
		wants[g] = want{m.Report(), encode(m)}
	}

	inOrder := make([]int, len(cells))
	for i := range inOrder {
		inOrder[i] = i
	}
	reversed := make([]int, len(cells))
	for i := range reversed {
		reversed[i] = len(cells) - 1 - i
	}
	var zeroLast, zeros []int
	for i, c := range cells {
		if c.Replica == 0 {
			zeros = append(zeros, i)
		} else {
			zeroLast = append(zeroLast, i)
		}
	}
	zeroLast = append(zeroLast, zeros...)
	orders := map[string][]int{"replica order": inOrder, "reversed": reversed, "replica 0 last": zeroLast}
	rng := rand.New(rand.NewSource(17))
	for k := 0; k < 50; k++ {
		orders[fmt.Sprintf("shuffle %02d", k)] = rng.Perm(len(cells))
	}

	// An output directory plus Cached is "already on disk there": the
	// run releases what it folds and writes nothing.
	outDir := t.TempDir()
	for name, order := range orders {
		run, _, err := s.Start(outDir, false, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		landedRes := make([]*Result, len(cells))
		arrived := make([][]bool, s.NumGroups())
		for g := range arrived {
			arrived[g] = make([]bool, replicas)
		}
		mergedN := 0
		for _, i := range order {
			r := *base[i] // Land detaches Agg from the Result it is given
			landedRes[i] = &r
			_, before := run.Group(cells[i].Group)
			if err := run.Land(CellResult{Cell: cells[i], Res: &r, Cached: true}, nil); err != nil {
				t.Fatalf("%s: landing %s: %v", name, cells[i].Name(), err)
			}
			if _, after := run.Group(cells[i].Group); before == nil && after != nil {
				mergedN++
			}
			// Independent model of the fold: a cell waits iff some lower
			// replica of its group has not arrived yet.
			arrived[cells[i].Group][cells[i].Replica] = true
			for j, lr := range landedRes {
				if lr == nil {
					continue
				}
				waiting := false
				for k := 0; k < cells[j].Replica; k++ {
					waiting = waiting || !arrived[cells[j].Group][k]
				}
				if holds := lr.Agg != nil; holds != waiting {
					t.Fatalf("%s: after landing %s, cell %s holds its aggregator = %v, waiting for a predecessor = %v",
						name, cells[i].Name(), cells[j].Name(), holds, waiting)
				}
			}
		}
		if mergedN != s.NumGroups() {
			t.Errorf("%s: %d landings completed a group, want %d", name, mergedN, s.NumGroups())
		}
		for g, w := range wants {
			_, m := run.Group(g)
			if m == nil {
				t.Fatalf("%s: group %d did not merge", name, g)
			}
			if m.Report() != w.report {
				t.Errorf("%s: group %d report differs from MergeResults in replica order", name, g)
			}
			if !bytes.Equal(encode(m), w.bytes) {
				t.Errorf("%s: group %d aggregator bytes differ from MergeResults in replica order", name, g)
			}
			if m.MergedReplicas != replicas {
				t.Errorf("%s: group %d merged %d replicas, want %d", name, g, m.MergedReplicas, replicas)
			}
		}
		for i, lr := range landedRes {
			if lr.Testbed == nil || lr.Methods == nil || lr.MeasureProbes != base[i].MeasureProbes ||
				lr.RONProbes != base[i].RONProbes || lr.RouteChanges != base[i].RouteChanges || lr.Config.Seed != cells[i].Seed {
				t.Errorf("%s: released cell %s lost its counters or identity", name, cells[i].Name())
			}
		}
	}

	// The same cells with no output directory: the Result is the only
	// copy, so nothing is released; and a group with an unselected cell
	// neither folds nor releases.
	run, _, err := s.Start("", false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := s.Spec()
	spec.Filter = func(c Cell) bool { return c.Index != 0 }
	sharded, err := NewSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	shard, _, err := sharded.Start(outDir, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		r := *base[i]
		if err := run.Land(CellResult{Cell: cells[i], Res: &r}, nil); err != nil {
			t.Fatal(err)
		}
		if r.Agg == nil {
			t.Errorf("cell %s released without an output directory", cells[i].Name())
		}
		if i == 0 {
			continue
		}
		r = *base[i]
		if err := shard.Land(CellResult{Cell: cells[i], Res: &r, Cached: true}, nil); err != nil {
			t.Fatal(err)
		}
		if g := cells[i].Group; (r.Agg == nil) != (g != 0) {
			t.Errorf("cell %s of group %d: released = %v in a shard missing cell 0", cells[i].Name(), g, r.Agg == nil)
		}
	}
	_, m0 := shard.Group(0)
	_, m1 := shard.Group(1)
	if m0 != nil || m1 == nil {
		t.Errorf("shard missing cell 0: group 0 merged = %v, group 1 merged = %v", m0 != nil, m1 != nil)
	}
}

// TestSweepRunReleasesPersistedCells is the SweepResult.Cells[i].Res
// contract end to end: a Run with an OutDir returns every cell with its
// counters and identity but no aggregator, the snapshot on disk holds
// exactly what was released, and the merged groups match a Run that
// kept everything.
func TestSweepRunReleasesPersistedCells(t *testing.T) {
	spec := fleetTestSpec()
	spec.Parallel = 2
	kept := runSweep(t, spec)
	spec.OutDir = t.TempDir()
	seen := 0
	spec.Progress = func(cr CellResult) {
		if cr.Res != nil && cr.Res.Agg != nil {
			seen++
		}
	}
	res := runSweep(t, spec)
	if seen != len(res.Cells) {
		t.Errorf("Progress saw %d full results, want %d", seen, len(res.Cells))
	}
	for i := range res.Cells {
		c, k := &res.Cells[i], &kept.Cells[i]
		if k.Res == nil || k.Res.Agg == nil {
			t.Fatalf("cell %s: a sweep without an output directory did not keep its aggregator", k.Cell.Name())
		}
		if c.Res == nil || c.Res.Agg != nil {
			t.Fatalf("cell %s: want a Result without an aggregator, got %+v", c.Cell.Name(), c.Res)
		}
		snap := readSnapshot(t, CellSnapshotPath(spec.OutDir, c.Cell.Name()))
		if c.Res.MeasureProbes != snap.MeasureProbes || c.Res.RONProbes != snap.RONProbes ||
			c.Res.RouteChanges != snap.RouteChanges || c.Res.Testbed.N() != snap.Hosts ||
			len(c.Res.Methods) != len(snap.Methods) || c.Res.Config.Seed != snap.Seed {
			t.Errorf("cell %s: released Result disagrees with its snapshot", c.Cell.Name())
		}
		restored, err := snap.Restore(c.Res.Config)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := k.Res.Agg.AppendBinary(nil)
		got, _ := restored.Agg.AppendBinary(nil)
		if !bytes.Equal(got, want) {
			t.Errorf("cell %s: snapshot aggregator differs from the kept one", c.Cell.Name())
		}
	}
	for g := range res.Groups {
		if !res.Groups[g].Complete() || res.Groups[g].Merged.Report() != kept.Groups[g].Merged.Report() {
			t.Errorf("group %s: merged output differs between persisted and in-memory sweeps", res.Groups[g].Name())
		}
	}
}
