package core

import (
	"bytes"
	"testing"

	"repro/internal/analysis"
)

func TestScenarioConfigValidate(t *testing.T) {
	if err := (ScenarioConfig{}).validate(); err != nil {
		t.Errorf("disabled zero value should validate: %v", err)
	}
	if err := (ScenarioConfig{Preset: "0"}).validate(); err != nil {
		t.Errorf("preset \"0\" should validate as off: %v", err)
	}
	if err := (ScenarioConfig{Preset: "storm"}).validate(); err != nil {
		t.Errorf("storm preset should validate: %v", err)
	}
	if err := (ScenarioConfig{Preset: "nope"}).validate(); err == nil {
		t.Error("unknown preset should fail validation")
	}
	cfg := DefaultConfig(RONnarrow, sweepDays)
	cfg.Scenario.Preset = "nope"
	if err := cfg.Validate(); err == nil {
		t.Error("Config.Validate should reject an unknown scenario preset")
	}
}

func TestScenarioAxisSemantics(t *testing.T) {
	ax := ScenarioAxis("0", "outage")
	if got := ax.Label("0"); got != "" {
		t.Errorf("scenario 0 label = %q, want unlabeled", got)
	}
	if got := ax.Label("outage"); got != "-scoutage" {
		t.Errorf("scenario outage label = %q, want -scoutage", got)
	}
	cfg := DefaultConfig(RONnarrow, sweepDays)
	if err := ax.Apply("0", &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Scenario.Enabled() {
		t.Error("scenario 0 must leave scenarios off")
	}
	if err := ax.Apply("storm", &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Scenario.Preset != "storm" {
		t.Errorf("apply storm: Preset = %q", cfg.Scenario.Preset)
	}
	if err := ax.Apply("nope", &cfg); err == nil {
		t.Error("applying an unknown preset should fail")
	}
	if _, err := NewAxis("scenario", []AxisValue{"0", "flap"}); err != nil {
		t.Errorf("registry reconstruction failed: %v", err)
	}
	if _, err := NewAxis("scenario", []AxisValue{"bogus"}); err == nil {
		t.Error("registry should reject unknown preset values")
	}
}

// TestScenarioAxisDefaultDoesNotPerturbGrid pins the golden-compat
// contract: a scenario axis pinned to "0" expands to the same cells —
// names and coordinate-derived seeds — as a grid that never mentions
// the axis.
func TestScenarioAxisDefaultDoesNotPerturbGrid(t *testing.T) {
	base := SweepSpec{Datasets: []Dataset{RONnarrow}, Days: sweepDays,
		BaseSeed: 7, Replicas: 2, Axes: []Axis{HysteresisAxis(0, 0.25)}}
	with := base
	with.Axes = append([]Axis{ScenarioAxis("0")}, base.Axes...)

	a, err := NewSweep(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSweep(with)
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := a.Cells(), b.Cells()
	if len(ca) != len(cb) {
		t.Fatalf("cell counts differ: %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		if ca[i].Name() != cb[i].Name() || ca[i].Seed != cb[i].Seed {
			t.Fatalf("cell %d diverged: %s/%d vs %s/%d",
				i, ca[i].Name(), ca[i].Seed, cb[i].Name(), cb[i].Seed)
		}
	}

	// A swept (non-default) scenario value labels its cells.
	swept := base
	swept.Axes = append([]Axis{ScenarioAxis("0", "outage")}, base.Axes...)
	s, err := NewSweep(swept)
	if err != nil {
		t.Fatal(err)
	}
	labeled := 0
	for _, c := range s.Cells() {
		if bytes.Contains([]byte(c.Name()), []byte("-scoutage")) {
			labeled++
		}
	}
	if want := len(s.Cells()) / 2; labeled != want {
		t.Errorf("%d of %d cells labeled -scoutage, want %d", labeled, len(s.Cells()), want)
	}
}

// TestScenarioCampaignResilience runs a short scenario campaign and
// checks the resilience accounting invariants plus determinism across
// arena reuse (a scenario cell after a scenario-off cell through one
// arena must match a fresh run bit for bit).
func TestScenarioCampaignResilience(t *testing.T) {
	cfg := DefaultConfig(RONnarrow, 0.02)
	cfg.Seed = 11
	cfg.Scenario.Preset = "storm"

	fresh, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs := fresh.Agg.Resilience()
	if rs == nil || !rs.HasData() {
		t.Fatal("scenario campaign produced no resilience stats")
	}
	if rs.UnderlayOutages == 0 {
		t.Fatal("storm scenario injected no outages")
	}
	for v := 0; v < 2; v++ {
		vs := rs.Variant(v)
		if vs.ProbesSent == 0 {
			t.Errorf("variant %d sent no recovery probes", v)
		}
		if vs.ProbesDelivered > vs.ProbesSent {
			t.Errorf("variant %d delivered %d of %d probes", v, vs.ProbesDelivered, vs.ProbesSent)
		}
		if vs.Masked > rs.UnderlayOutages {
			t.Errorf("variant %d masked %d of %d outages", v, vs.Masked, rs.UnderlayOutages)
		}
	}

	// Arena reuse: scenario-off cell, then the scenario cell, through
	// one arena; the reused-slab result must match the fresh one.
	arena := NewArena()
	off := cfg
	off.Scenario = ScenarioConfig{}
	if _, err := arena.Run(off); err != nil {
		t.Fatal(err)
	}
	reused, err := arena.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := fresh.Agg.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := reused.Agg.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fb, rb) {
		t.Error("arena-reused scenario cell diverged from a fresh run")
	}
	if fresh.Report() != reused.Report() {
		t.Error("rendered reports diverged between fresh and reused runs")
	}
}

// TestScenarioSnapshotV4RoundTrip pins the codec's section flags (the
// payload's second byte): a scenario-off aggregator sets none, a
// scenario aggregator flags its resilience section, round-trips exactly,
// and merges.
func TestScenarioSnapshotV4RoundTrip(t *testing.T) {
	off := DefaultConfig(RONnarrow, sweepDays)
	off.Seed = 3
	plain, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := plain.Agg.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if pb[0] != analysis.SnapshotCodecVersion || pb[1] != 0 {
		t.Errorf("scenario-off payload leads with version %d flags %#x, want %d and 0", pb[0], pb[1], analysis.SnapshotCodecVersion)
	}

	on := off
	on.Scenario.Preset = "outage"
	res, err := Run(on)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := res.Agg.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	const resilienceFlag = 1 << 1
	if sb[1] != resilienceFlag {
		t.Fatalf("scenario payload flags = %#x, want %#x", sb[1], resilienceFlag)
	}
	back, err := analysis.UnmarshalAggregator(sb)
	if err != nil {
		t.Fatal(err)
	}
	sb2, err := back.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb, sb2) {
		t.Error("scenario payload did not round-trip byte-identically")
	}

	// Merging a resilience-bearing aggregator into a plain one carries
	// the section across.
	if err := plain.Agg.Merge(back); err != nil {
		t.Fatal(err)
	}
	merged := plain.Agg.Resilience()
	if merged == nil || merged.UnderlayOutages != res.Agg.Resilience().UnderlayOutages {
		t.Error("merge dropped the resilience section")
	}
	mb, err := plain.Agg.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if mb[1] != resilienceFlag {
		t.Errorf("merged payload flags = %#x, want %#x", mb[1], resilienceFlag)
	}
}
