package core

import (
	"testing"
	"time"
)

// TestRON2003Acceptance runs a one-day RON2003 campaign and checks the
// reproduction bands against the paper's Table 5/6 and
// §4.4: who wins, by roughly what factor, and the loss-correlation
// ordering. Absolute values are banded, not pinned — the substrate is a
// simulator, not the authors' testbed. The published values are the
// named rows of the root package's published table (fidelity_test.go),
// which docs/FIDELITY.md judges against a 16-seed ensemble.
func TestRON2003Acceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("acceptance campaign takes several seconds")
	}
	cfg := DefaultConfig(RON2003, 1)
	cfg.Seed = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Table5Rows()
	byName := map[string]int{}
	for i, r := range rows {
		byName[r.Method] = i
	}
	get := func(name string) (float64, float64, time.Duration) {
		i, ok := byName[name]
		if !ok {
			t.Fatalf("row %q missing", name)
		}
		return rows[i].TotalLossPct, rows[i].CondLossPct, rows[i].MeanLatency
	}

	direct, _, directLat := get("direct*")
	lat, _, latLat := get("lat*")
	loss, _, _ := get("loss")
	mesh, meshCLP, meshLat := get("direct rand")
	both, bothCLP, _ := get("lat loss")
	dd, ddCLP, _ := get("direct direct")
	_, dd10CLP, _ := get("dd 10 ms")
	_, dd20CLP, _ := get("dd 20 ms")

	band := func(name string, got, lo, hi float64) {
		t.Helper()
		if got < lo || got > hi {
			t.Errorf("%s = %.3f, want within [%.3f, %.3f]", name, got, lo, hi)
		}
	}

	// Rows "loss of direct*", "loss of lat*", "loss beats direct*",
	// "direct rand beats loss" and "lat loss beats direct direct".
	band("direct loss%", direct, 0.2, 0.8)
	band("lat loss%", lat, 0.2, 0.9)
	if !(loss < direct) {
		t.Errorf("loss-optimized %.3f should beat direct %.3f", loss, direct)
	}
	if !(mesh < loss) {
		t.Errorf("mesh %.3f should beat reactive %.3f (Table 5)", mesh, loss)
	}
	if !(dd < direct) {
		t.Errorf("direct direct %.3f should beat direct %.3f", dd, direct)
	}
	if both >= dd {
		t.Errorf("lat loss %.3f should beat direct direct %.3f", both, dd)
	}
	// Row "mesh loss reduction".
	reduction := (direct - mesh) / direct
	band("mesh loss reduction", reduction, 0.25, 0.65)

	// Rows "CLP direct direct", "CLP dd 10 ms", "CLP dd 20 ms", "CLP
	// direct rand" and "CLP falls with spacing".
	band("CLP direct direct", ddCLP, 60, 85)
	band("CLP dd10", dd10CLP, 55, 80)
	band("CLP dd20", dd20CLP, 50, 78)
	band("CLP direct rand", meshCLP, 40, 70)
	band("CLP lat loss", bothCLP, 35, 75)
	if !(ddCLP > dd10CLP) {
		t.Errorf("CLP ordering: dd %.1f should exceed dd10 %.1f", ddCLP, dd10CLP)
	}
	if !(dd10CLP > meshCLP) {
		t.Errorf("CLP ordering: dd10 %.1f should exceed direct rand %.1f",
			dd10CLP, meshCLP)
	}

	// Rows "direct latency", "lat* latency cut" and "mesh latency cut".
	dms := float64(directLat) / float64(time.Millisecond)
	band("direct latency ms", dms, 40, 70)
	latReduction := float64(directLat-latLat) / float64(directLat)
	band("lat latency reduction", latReduction, 0.05, 0.30)
	if meshLat >= directLat {
		t.Errorf("mesh latency %v should undercut direct %v", meshLat, directLat)
	}

	// Row "paths under 1 % loss" (Figure 2).
	fig2 := res.Figure2(100)
	if frac := fig2.FractionAtMost(1.0); frac < 0.6 || frac > 0.98 {
		t.Errorf("fraction of paths under 1%% loss = %.2f, want ≈0.8", frac)
	}

	// Row "loss-free 20-minute windows" (Figure 3).
	fig3 := res.Figure3()[res.Agg.MethodIndex("direct rand")]
	if frac := fig3.FractionAtMost(0); frac < 0.85 {
		t.Errorf("zero-loss 20-min windows = %.3f, want > 0.85", frac)
	}

	// Table 6: high-loss hours exist and reactive routing trims the
	// worst tail relative to plain redundancy (rows ">90 % path-hours"
	// and "high-loss tail").
	t6 := res.Agg.HighLossHours()
	di := res.Agg.MethodIndex("direct direct")
	li := res.Agg.MethodIndex("lat loss")
	if t6.Counts[di][1] == 0 {
		t.Error("no >10% loss hours for direct direct; episodes missing")
	}
	var ddTail, bothTail int64
	for k := 3; k < len(t6.Thresholds); k++ {
		ddTail += t6.Counts[di][k]
		bothTail += t6.Counts[li][k]
	}
	if bothTail > ddTail {
		t.Errorf("lat loss high-loss tail %d should not exceed direct direct %d",
			bothTail, ddTail)
	}

	// Row "per-path back-to-back CLP" (Figure 4): per-path CLP spread
	// with mass at 100% for back-to-back copies.
	_, cdfs := res.Figure4()
	ddPathCLP := cdfs[0]
	if ddPathCLP.N() < 50 {
		t.Errorf("Figure 4 paths = %d, want at least tens", ddPathCLP.N())
	}
	if med := ddPathCLP.Quantile(0.5); med < 50 {
		t.Errorf("median per-path back-to-back CLP = %.1f, want > 50", med)
	}
}

// TestRONwideAcceptance checks Table 7's qualitative claims on a
// half-day 2002-testbed campaign: rand alone is much lossier than direct,
// rand rand achieves mesh-grade totlp with terrible latency, and
// direct lat has the best latency of all methods (the Table 7 rows of
// the published table, judged with these rules in docs/FIDELITY.md).
func TestRONwideAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("acceptance campaign takes several seconds")
	}
	cfg := DefaultConfig(RONwide, 0.5)
	cfg.Seed = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Table5Rows()
	row := func(name string) (totlp float64, lat time.Duration) {
		for _, r := range rows {
			if r.Method == name {
				return r.TotalLossPct, r.MeanLatency
			}
		}
		t.Fatalf("row %q missing", name)
		return 0, 0
	}
	directLoss, directRTT := row("direct")
	randLoss, randRTT := row("rand")
	rrLoss, _ := row("rand rand")
	drLoss, _ := row("direct rand")
	_, dlRTT := row("direct lat")

	if randLoss < directLoss*1.5 {
		t.Errorf("rand loss %.3f should far exceed direct %.3f (Table 7)",
			randLoss, directLoss)
	}
	if randRTT < directRTT {
		t.Errorf("rand RTT %v should exceed direct %v", randRTT, directRTT)
	}
	if rrLoss > drLoss*1.5 {
		t.Errorf("rand rand totlp %.3f should be comparable to direct rand %.3f",
			rrLoss, drLoss)
	}
	// Row "direct lat has the best latency".
	for _, r := range rows {
		if r.Method == "direct lat" || r.MeanLatency == 0 {
			continue
		}
		if dlRTT > r.MeanLatency+2*time.Millisecond {
			t.Errorf("direct lat RTT %v should be best; %q has %v",
				dlRTT, r.Method, r.MeanLatency)
		}
	}
}
