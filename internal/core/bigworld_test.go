package core

import (
	"strings"
	"testing"

	"repro/internal/route"
)

// shortBigWorldConfig is a fast synthetic-overlay campaign for tests.
func shortBigWorldConfig(nodes int, policy Policy) Config {
	cfg := DefaultConfig(RONnarrow, 0.005)
	cfg.Nodes = nodes
	cfg.Policy = policy
	return cfg
}

func TestBigWorldCampaignRuns(t *testing.T) {
	for _, policy := range []Policy{PolicyFullMesh, PolicyLandmark} {
		cfg := shortBigWorldConfig(64, policy)
		res, err := NewArena().Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if res.Testbed.N() != 64 {
			t.Fatalf("%v: testbed has %d hosts, want 64", policy, res.Testbed.N())
		}
		if res.RONProbes == 0 || res.MeasureProbes == 0 {
			t.Fatalf("%v: empty campaign: %d probes, %d measures",
				policy, res.RONProbes, res.MeasureProbes)
		}
	}
}

// TestBigWorldLandmarkProbeBudget pins the policy's point: the landmark
// campaign sends a small fraction of full-mesh probes at the same size.
func TestBigWorldLandmarkProbeBudget(t *testing.T) {
	full, err := NewArena().Run(shortBigWorldConfig(128, PolicyFullMesh))
	if err != nil {
		t.Fatal(err)
	}
	lm, err := NewArena().Run(shortBigWorldConfig(128, PolicyLandmark))
	if err != nil {
		t.Fatal(err)
	}
	plan := route.NewLandmarkPlan(128)
	wantRatio := float64(plan.PlannedLinks()) / float64(128*127)
	gotRatio := float64(lm.RONProbes) / float64(full.RONProbes)
	// Follow-up probes after losses make the ratio inexact; a loose
	// band around the planned-link ratio is the contract.
	if gotRatio > wantRatio*1.5 || gotRatio < wantRatio*0.5 {
		t.Fatalf("landmark probe ratio %.3f, planned-link ratio %.3f",
			gotRatio, wantRatio)
	}
}

// TestBigWorldDeterminism runs the same landmark cell twice through
// separate arenas and requires identical counters and aggregator text.
func TestBigWorldDeterminism(t *testing.T) {
	cfg := shortBigWorldConfig(64, PolicyLandmark)
	a, err := NewArena().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewArena().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.RONProbes != b.RONProbes || a.MeasureProbes != b.MeasureProbes ||
		a.RouteChanges != b.RouteChanges {
		t.Fatalf("counters differ: %+v vs %+v",
			[3]int64{a.RONProbes, a.MeasureProbes, a.RouteChanges},
			[3]int64{b.RONProbes, b.MeasureProbes, b.RouteChanges})
	}
	if a.Agg.String() != b.Agg.String() {
		t.Fatal("aggregator summaries differ across identical runs")
	}
}

// TestBigWorldArenaReuse runs a paper cell, a big-world cell, and the
// paper cell again through one arena: the third run must reproduce the
// first exactly (the arena caches rebuilt cleanly across topology
// switches).
func TestBigWorldArenaReuse(t *testing.T) {
	ar := NewArena()
	paper := DefaultConfig(RONnarrow, 0.005)
	first, err := ar.RunRetained(paper)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ar.Run(shortBigWorldConfig(48, PolicyLandmark)); err != nil {
		t.Fatal(err)
	}
	again, err := ar.RunRetained(paper)
	if err != nil {
		t.Fatal(err)
	}
	if first.RONProbes != again.RONProbes || first.Agg.String() != again.Agg.String() {
		t.Fatal("paper cell changed after an interleaved big-world cell")
	}
}

// TestBigWorldArenaAcrossSizes runs a 64-node, a 32-node and again a
// 64-node cell through one arena: the network drops its component slab
// for the smaller mesh and regrows it for the original, and each cell
// must equal a fresh arena's bit for bit.
func TestBigWorldArenaAcrossSizes(t *testing.T) {
	ar := NewArena()
	for _, nodes := range []int{64, 32, 64} {
		cfg := shortBigWorldConfig(nodes, PolicyLandmark)
		fresh, err := NewArena().Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := ar.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		equalResults(t, reused, fresh)
	}
}

func TestBigWorldConfigValidation(t *testing.T) {
	cfg := DefaultConfig(RONnarrow, 0.01)
	cfg.Nodes = 1
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("Nodes=1: err = %v, want out-of-range", err)
	}
	cfg.Nodes = 1 << 20
	if err := cfg.Validate(); err == nil {
		t.Error("Nodes=1<<20: expected error")
	}
	// The arena must reject before constructing the topology (no panic).
	if _, err := NewArena().Run(cfg); err == nil {
		t.Error("Run with huge Nodes: expected error")
	}
	cfg.Nodes = 0
	cfg.Policy = Policy(7)
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "Policy") {
		t.Errorf("bad policy: err = %v", err)
	}
}

func TestOverlaySizePolicyAxes(t *testing.T) {
	osAxis, err := NewAxis("overlaysize", []AxisValue{"0", "64"})
	if err != nil {
		t.Fatal(err)
	}
	if got := osAxis.Label("64"); got != "-n64" {
		t.Errorf("overlaysize label = %q, want -n64", got)
	}
	if got := osAxis.Label("0"); got != "" {
		t.Errorf("overlaysize default label = %q, want empty", got)
	}
	var cfg Config
	if err := osAxis.Apply("64", &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 64 {
		t.Errorf("Apply(64): Nodes = %d", cfg.Nodes)
	}
	if _, err := NewAxis("overlaysize", []AxisValue{"1"}); err == nil {
		t.Error("overlaysize 1 accepted")
	}

	pAxis, err := NewAxis("policy", []AxisValue{"fullmesh", "landmark"})
	if err != nil {
		t.Fatal(err)
	}
	if got := pAxis.Label("landmark"); got != "-lm" {
		t.Errorf("policy landmark label = %q, want -lm", got)
	}
	if got := pAxis.Label("fullmesh"); got != "" {
		t.Errorf("policy fullmesh label = %q, want empty", got)
	}
	if err := pAxis.Apply("landmark", &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Policy != PolicyLandmark {
		t.Errorf("Apply(landmark): Policy = %v", cfg.Policy)
	}
	if _, err := NewAxis("policy", []AxisValue{"hierarchical"}); err == nil {
		t.Error("unknown policy accepted")
	}

	def, ok := LookupAxis("overlaysize")
	if !ok || def.Flag != "nodes" {
		t.Errorf("overlaysize def = %+v, want Flag nodes", def)
	}
}

// TestBigWorldSweepNames pins cell naming: a grid with both axes labels
// only non-default coordinates.
func TestBigWorldSweepNames(t *testing.T) {
	spec := SweepSpec{
		Datasets: []Dataset{RONnarrow},
		Days:     0.005,
		Axes: []Axis{
			mustAxis(t, "overlaysize", "0", "48"),
			mustAxis(t, "policy", "fullmesh", "landmark"),
		},
		Replicas: 1,
	}
	sweep, err := NewSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, c := range sweep.Cells() {
		names[c.Name()] = true
	}
	if len(names) != 4 {
		t.Fatalf("got %d cells, want 4: %v", len(names), names)
	}
	want := []string{"ronnarrow", "ronnarrow-lm", "ronnarrow-n48", "ronnarrow-n48-lm"}
	for _, w := range want {
		found := false
		for n := range names {
			if strings.HasSuffix(n, "-r00") && strings.HasPrefix(n, w) &&
				len(n) == len(w)+len("-r00") {
				found = true
			}
		}
		if !found {
			t.Errorf("no cell named %s-r00 in %v", w, names)
		}
	}
}
