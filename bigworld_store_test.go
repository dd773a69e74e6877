package repro

import (
	"slices"
	"testing"

	"repro/experiment"
	"repro/internal/core"
	"repro/internal/resultstore"
)

// TestStoreBigWorldAxesQueryable pins the satellite contract for the
// overlay-scaling axes: a sweep crossing overlaysize × policy persists
// rows whose axis coordinates answer `ronreport -store` queries with no
// registration anywhere in the query path — predicates and group-by
// resolve axis fields dynamically from the row's kv list — and a stored
// big-world cell snapshot reads back under the exact synthetic
// configuration that produced it.
func TestStoreBigWorldAxesQueryable(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs 4 compressed campaigns")
	}
	dir := t.TempDir()
	e, err := experiment.New(
		experiment.Datasets(experiment.RONnarrow),
		experiment.Days(0.005),
		experiment.Seed(11),
		experiment.Replicas(1),
		experiment.Output(dir),
		experiment.AxisValues("overlaysize", "0", "48"),
		experiment.AxisValues("policy", "fullmesh", "landmark"),
	)
	if err != nil {
		t.Fatal(err)
	}
	run, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.WriteManifest(run, dir, nil); err != nil {
		t.Fatal(err)
	}

	seg, err := resultstore.ReadSegment(resultstore.SegmentPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	rows := seg.Unique()

	// -query overlaysize=48,policy=landmark,kind=cell — both axes are
	// non-default on this cell, so both appear in its kv list.
	preds, err := resultstore.ParsePredicates("overlaysize=48,policy=landmark,kind=cell")
	if err != nil {
		t.Fatal(err)
	}
	hits := resultstore.Select(rows, preds)
	if len(hits) != 1 {
		t.Fatalf("overlaysize=48,policy=landmark matched %d cell rows, want 1", len(hits))
	}
	lmRow := hits[0]
	if lmRow.Name != "ronnarrow-n48-lm-r00" {
		t.Fatalf("matched row %q, want ronnarrow-n48-lm-r00", lmRow.Name)
	}
	if lmRow.Hosts != 48 {
		t.Fatalf("big-world row records %d hosts, want 48", lmRow.Hosts)
	}

	// Default coordinates carry no kv entry, so the paper-testbed rows
	// resolve overlaysize to "" — matched by the empty pattern, exactly
	// the contract the query engine documents for absent axes.
	preds, err = resultstore.ParsePredicates("overlaysize=,kind=cell")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(resultstore.Select(rows, preds)); got != 2 {
		t.Fatalf("overlaysize= matched %d cell rows, want 2 paper-testbed cells", got)
	}

	// -group-by overlaysize buckets the grid without any axis wiring.
	var cells []*resultstore.Row
	for _, r := range rows {
		if r.Kind == resultstore.KindCell {
			cells = append(cells, r)
		}
	}
	groups := resultstore.GroupBy(cells, "overlaysize")
	byKey := map[string]int{}
	for _, g := range groups {
		byKey[g.Key] = len(g.Rows)
	}
	if byKey[""] != 2 || byKey["48"] != 2 {
		t.Fatalf("group-by overlaysize buckets = %v, want {\"\":2, \"48\":2}", byKey)
	}

	// The drill path: read the stored big-world cell's snapshot under
	// the grid its manifest records and confirm the axis coordinates
	// round-tripped into the config.
	m, err := experiment.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Sweep(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(s.Cells(), func(c core.Cell) bool { return c.Name() == lmRow.Name })
	if i < 0 {
		t.Fatalf("row %s is not a cell of the manifest's grid", lmRow.Name)
	}
	res, err := s.ReadCell(i, dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Nodes != 48 {
		t.Fatalf("restored config Nodes = %d, want 48", res.Config.Nodes)
	}
	if res.Config.Policy != core.PolicyLandmark {
		t.Fatalf("restored config Policy = %v, want landmark", res.Config.Policy)
	}
	if res.Testbed.N() != 48 {
		t.Fatalf("restored testbed has %d hosts, want 48", res.Testbed.N())
	}
}
