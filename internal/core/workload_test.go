package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/fec"
)

// TestWorkloadFECDelivery pins the erasure-channel property the
// workload's delivered-frame accounting relies on: a frame is
// recoverable iff at least k of its n = k+m shards arrive, regardless
// of which ones. It cross-checks Monte-Carlo delivery through real
// fec.Code Encode/Reconstruct calls — with heterogeneous independent
// Bernoulli losses per shard, the striped-paths model — against the
// closed-form P(≥k survive) computed by dynamic programming.
func TestWorkloadFECDelivery(t *testing.T) {
	cases := []struct {
		k, m  int
		loss  []float64 // per-shard loss probability, len k+m
		label string
	}{
		{2, 1, []float64{0.1, 0.1, 0.1}, "uniform light"},
		{4, 1, []float64{0.05, 0.05, 0.3, 0.3, 0.1}, "two lossy paths"},
		{4, 2, []float64{0.2, 0.2, 0.2, 0.2, 0.2, 0.2}, "uniform heavy"},
		{3, 3, []float64{0.02, 0.5, 0.02, 0.5, 0.02, 0.5}, "alternating"},
	}
	rng := rand.New(rand.NewSource(4242))
	const trials = 4000
	for _, tc := range cases {
		code, err := fec.NewCode(tc.k, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		n := tc.k + tc.m

		// Closed form: dp[j] = P(j of the shards processed so far
		// survive), shard survival independent with prob 1-loss[i].
		dp := make([]float64, n+1)
		dp[0] = 1
		for i := 0; i < n; i++ {
			p := 1 - tc.loss[i]
			for j := i + 1; j >= 1; j-- {
				dp[j] = dp[j]*(1-p) + dp[j-1]*p
			}
			dp[0] *= 1 - p
		}
		want := 0.0
		for j := tc.k; j <= n; j++ {
			want += dp[j]
		}

		delivered := 0
		data := make([][]byte, tc.k)
		for trial := 0; trial < trials; trial++ {
			for i := range data {
				data[i] = make([]byte, 16)
				rng.Read(data[i])
			}
			shards, err := code.Encode(data)
			if err != nil {
				t.Fatal(err)
			}
			orig := make([][]byte, tc.k)
			for i := range orig {
				orig[i] = append([]byte(nil), shards[i]...)
			}
			survivors := 0
			for i := range shards {
				if rng.Float64() < tc.loss[i] {
					shards[i] = nil
				} else {
					survivors++
				}
			}
			err = code.Reconstruct(shards)
			if survivors < tc.k {
				if err == nil {
					t.Fatalf("%s: reconstructed from %d < k=%d shards", tc.label, survivors, tc.k)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: reconstruct failed with %d >= k=%d shards: %v",
					tc.label, survivors, tc.k, err)
			}
			for i := range orig {
				if string(shards[i]) != string(orig[i]) {
					t.Fatalf("%s: shard %d reconstructed wrong", tc.label, i)
				}
			}
			delivered++
		}

		got := float64(delivered) / trials
		// The empirical rate is binomial around the closed form; 5σ keeps
		// the fixed-seed check tight without being brittle to case edits.
		tol := 5 * math.Sqrt(want*(1-want)/trials)
		if math.Abs(got-want) > tol {
			t.Errorf("%s (k=%d m=%d): delivered %.4f, closed form %.4f (tol %.4f)",
				tc.label, tc.k, tc.m, got, want, tol)
		}
	}
}

func TestWorkloadConfigValidate(t *testing.T) {
	if err := (WorkloadConfig{}).Validate(); err != nil {
		t.Errorf("disabled zero value should validate: %v", err)
	}
	if err := DefaultWorkloadConfig().Validate(); err != nil {
		t.Errorf("default config should validate: %v", err)
	}
	bad := []func(*WorkloadConfig){
		func(w *WorkloadConfig) { w.FrameInterval = 0 },
		func(w *WorkloadConfig) { w.DataShards = 0 },
		func(w *WorkloadConfig) { w.ParityShards = -1 },
		func(w *WorkloadConfig) { w.DataShards, w.ParityShards = 200, 100 },
		func(w *WorkloadConfig) { w.Paths = 0 },
		func(w *WorkloadConfig) { w.Paths = 17 },
	}
	for i, mutate := range bad {
		w := DefaultWorkloadConfig()
		mutate(&w)
		if err := w.Validate(); err == nil {
			t.Errorf("mutation %d should fail validation: %+v", i, w)
		}
	}
}

// TestWorkloadAxes checks the enable-with-defaults semantics: a zero
// axis value is an unlabeled no-op, any positive value switches the
// workload on with the default shape and then refines its own field.
func TestWorkloadAxes(t *testing.T) {
	base := func() *Config {
		cfg := DefaultConfig(RONnarrow, 0.01)
		return &cfg
	}

	red := RedundancyAxis(0, 0.5)
	cfg := base()
	if err := red.Apply("0", cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Workload.Enabled() {
		t.Error("redundancy 0 must leave the workload off")
	}
	if got := red.Label("0"); got != "" {
		t.Errorf("redundancy 0 label = %q, want unlabeled", got)
	}
	if err := red.Apply("0.5", cfg); err != nil {
		t.Fatal(err)
	}
	if !cfg.Workload.Enabled() {
		t.Fatal("redundancy 0.5 must enable the workload")
	}
	if want := DefaultWorkloadConfig().DataShards / 2; cfg.Workload.ParityShards != want {
		t.Errorf("redundancy 0.5: ParityShards = %d, want %d", cfg.Workload.ParityShards, want)
	}
	if got := red.Label("0.5"); got != "-red0.5" {
		t.Errorf("redundancy 0.5 label = %q, want -red0.5", got)
	}

	cfg = base()
	if err := mustAxis(t, "paths", "0", "3").Apply("3", cfg); err != nil {
		t.Fatal(err)
	}
	if !cfg.Workload.Enabled() || cfg.Workload.Paths != 3 {
		t.Errorf("paths 3: got %+v", cfg.Workload)
	}

	cfg = base()
	if err := mustAxis(t, "streams", "0", "8").Apply("8", cfg); err != nil {
		t.Fatal(err)
	}
	if !cfg.Workload.Enabled() || cfg.Workload.Streams != 8 {
		t.Errorf("streams 8: got %+v", cfg.Workload)
	}
	// Refinement on an already-enabled workload must not reset other
	// fields back to defaults.
	cfg.Workload.Paths = 4
	if err := mustAxis(t, "streams", "0", "2").Apply("2", cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Workload.Paths != 4 || cfg.Workload.Streams != 2 {
		t.Errorf("refinement clobbered fields: %+v", cfg.Workload)
	}
}

// TestWorkloadCampaignAccounting runs a short workload-enabled campaign
// and sanity-checks the delivered-frame accounting invariants that hold
// by construction: both variants see the same frame count, shard
// counters match frames × group size, and delivered never exceeds sent.
func TestWorkloadCampaignAccounting(t *testing.T) {
	cfg := DefaultConfig(RONnarrow, 0.01)
	cfg.Seed = 9
	cfg.Workload = DefaultWorkloadConfig()
	cfg.Workload.Streams = 2
	cfg.Workload.FrameInterval = 500 * time.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws := res.Agg.Workload()
	if ws == nil || !ws.HasData() {
		t.Fatal("workload-enabled campaign produced no workload stats")
	}
	bp, mp := ws.Variant(0), ws.Variant(1)
	if bp.FramesSent == 0 || bp.FramesSent != mp.FramesSent {
		t.Fatalf("frame counts: best-path %d, multi-path %d", bp.FramesSent, mp.FramesSent)
	}
	k, n := int64(ws.DataShards), int64(ws.DataShards+ws.ParityShards)
	if bp.ShardsSent != bp.FramesSent*k {
		t.Errorf("best-path shards sent %d, want frames×k = %d", bp.ShardsSent, bp.FramesSent*k)
	}
	if mp.ShardsSent != mp.FramesSent*n {
		t.Errorf("multi-path shards sent %d, want frames×n = %d", mp.ShardsSent, mp.FramesSent*n)
	}
	for i, v := range []struct{ sent, del int64 }{
		{bp.FramesSent, bp.FramesDelivered}, {mp.FramesSent, mp.FramesDelivered},
		{bp.ShardsSent, bp.ShardsDelivered}, {mp.ShardsSent, mp.ShardsDelivered},
	} {
		if v.del > v.sent || v.del < 0 {
			t.Errorf("counter %d: delivered %d of sent %d", i, v.del, v.sent)
		}
	}
}
