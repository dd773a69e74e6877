package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"testing"

	"repro/experiment"
	"repro/internal/analysis"
)

// TestGoldenSweepDigests locks a fixed-seed sweep the way
// TestGoldenDigests locks single campaigns: the full grid's cell names
// and coordinate-derived seeds, plus the rendered merged tables of
// every grid point, are hashed and compared against digests recorded
// from the pre-axis engine (fixed SweepSpec fields, hand-rolled flag
// parsing) at the commit that introduced the axis registry. The sweep
// is built through the public experiment API, so the test enforces the
// redesign's core claim end to end: axes-as-data produce byte-identical
// grids — same names, same seeds, same merged bytes — as the fixed
// fields they replaced, including the profile axis's reconstruction of
// "ls4-es1" from its name alone.
//
// Regenerate (ONLY for an intentional semantic change, never to
// accommodate a refactor): GOLDEN_PRINT=1 go test -run TestGoldenSweepDigests -v .
var goldenSweepDigests = map[string]string{
	"grid":                             "8a6bcc6742d5058c5982e704a84833c0d7282f32279a50cb7daacf3fb69a2118",
	"ronnarrow":                        "29f1dfdb43ead00fd1169adf044e1ae5350b5d4263e43921f2f4be6d26653d28",
	"ronnarrow-w25":                    "69185cf3b987740900f100311f886eca5e32554736e504c6b8af8ad7db86d994",
	"ronnarrow-p30s":                   "864a8c99f205f965501b4b7442b495f835bf70def679a66b0157a3f54ed7b929",
	"ronnarrow-p30s-w25":               "6ee8ce665f727501c4a7fad1bf68d54dee49190d4c4c27da456f7303fecb6b92",
	"ronnarrow-h0.25":                  "cf82f81a6d589d3dab0417ea48f12fdb5cffd850cee6959c66984dbd437d6de1",
	"ronnarrow-h0.25-w25":              "98d94522438f6fb79f9373a53ea1e9747aba8c9bc193707c3f40f9f437ea1928",
	"ronnarrow-h0.25-p30s":             "6ce42d2418451866d9ea67baf4640bee58e3527e2f899d3939322f3e6dbd4c8b",
	"ronnarrow-h0.25-p30s-w25":         "f0d046f62fd2a2c5e0c8a973096a9887162f99354ea65d80aee6670b0772eae5",
	"ronnarrow-ls4-es1":                "cc7c60af074a50d4d3ece6e51cd1fff93a146e5812722c4f55ef4f6fa717964a",
	"ronnarrow-ls4-es1-w25":            "43c120adb41213d3d31aa4eaf164a932b8766ee09ce26186ce946844ce5a695b",
	"ronnarrow-ls4-es1-p30s":           "364b938ef73cf46f3710eff6047a613b75ec629cbadfe4b1242c156c6e22b93a",
	"ronnarrow-ls4-es1-p30s-w25":       "e42887cd4f3743622bcedac44fc4c9657f08d8701fcd99a8eaee53748d4831b5",
	"ronnarrow-ls4-es1-h0.25":          "177bd1023028ee8db1b726d6a08c4d31e4ac236a81b31a23ff14bba2a2d2fa9d",
	"ronnarrow-ls4-es1-h0.25-w25":      "11ac2822513fe884515b33b2f7b4d56413db99367ae317c3ae60a956ec58d623",
	"ronnarrow-ls4-es1-h0.25-p30s":     "9c640a78729758e0aa734b97e777397b3121d1888230819137b83adce0a7cf64",
	"ronnarrow-ls4-es1-h0.25-p30s-w25": "2fd68e870d7fc1bb48913cd9ad85ee83ebbecdb539df729e4d3fbed14edecbe8",
}

func TestGoldenSweepDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: the golden sweep runs 32 compressed campaigns")
	}
	e, err := experiment.New(
		experiment.Datasets(experiment.RONnarrow),
		experiment.Days(0.02),
		experiment.Seed(42),
		experiment.Replicas(2),
		// "ls4-es1" exercises the profile axis's name-only
		// reconstruction path — the same one the manifest uses.
		experiment.AxisValues("profile", "", "ls4-es1"),
		experiment.AxisValues("hysteresis", "0", "0.25"),
		experiment.AxisValues("probeinterval", "0", "30s"),
		experiment.AxisValues("losswindow", "0", "25"),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}

	arts := map[string]string{}
	grid := ""
	for _, c := range res.Cells {
		grid += fmt.Sprintf("%s %d\n", c.Cell.Name(), c.Cell.Seed)
	}
	arts["grid"] = grid
	for gi := range res.Groups {
		g := &res.Groups[gi]
		arts[g.Name()] = analysis.RenderTable5(g.Merged.Table5Rows(), g.Merged.LatencyLabel()) +
			analysis.RenderTable6(g.Merged.Agg.HighLossHours())
	}

	keys := make([]string, 0, len(arts))
	for k := range arts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sum := sha256.Sum256([]byte(arts[k]))
		got := hex.EncodeToString(sum[:])
		if os.Getenv("GOLDEN_PRINT") != "" {
			fmt.Printf("\t%q: %q,\n", k, got)
			continue
		}
		want, ok := goldenSweepDigests[k]
		if !ok {
			t.Errorf("%s: no golden digest recorded (got %s)", k, got)
			continue
		}
		if got != want {
			t.Errorf("%s: sweep output changed\n  got  %s\n  want %s\n(the axis redesign's contract is byte-identical grids; see the comment on goldenSweepDigests)",
				k, got, want)
		}
	}
	if len(res.Groups) != len(goldenSweepDigests)-1 {
		t.Errorf("sweep produced %d groups, golden set has %d", len(res.Groups), len(goldenSweepDigests)-1)
	}
}

// goldenWorkloadSweepDigests locks a workload-enabled sweep: a base
// multi-path + FEC workload on every cell, with the redundancy axis
// sweeping the parity budget. The hashed artifacts add the rendered
// workload table to the probe tables, so the lock covers delivered-
// frame accounting, per-variant CDFs, and replica merging end to end.
// It is deliberately a separate map from goldenSweepDigests: the
// workload-free grid's digests predate this layer and must never move.
//
// Regenerate (ONLY for an intentional semantic change):
// GOLDEN_PRINT=1 go test -run TestGoldenWorkloadSweepDigests -v .
var goldenWorkloadSweepDigests = map[string]string{
	"grid":             "99215025ca61542b1c5d99c1996aec4c278ba60c92e140bfc78eb9f4d5362d4c",
	"ronnarrow":        "47e230617e7fbfe1a6c644fd35d7e53170c65d845d8ba80d61916041d1a742a0",
	"ronnarrow-red0.5": "6a251ac8002610c158bc7e418c623047e493d4da970551987649f0ddf97c453f",
}

func TestGoldenWorkloadSweepDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: the golden workload sweep runs 8 compressed campaigns")
	}
	w := experiment.DefaultWorkloadConfig()
	w.Streams = 2
	e, err := experiment.New(
		experiment.Datasets(experiment.RONnarrow),
		experiment.Days(0.02),
		experiment.Seed(42),
		experiment.Replicas(2),
		experiment.Workload(w),
		experiment.AxisValues("redundancy", "0", "0.5"),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}

	arts := map[string]string{}
	grid := ""
	for _, c := range res.Cells {
		grid += fmt.Sprintf("%s %d\n", c.Cell.Name(), c.Cell.Seed)
	}
	arts["grid"] = grid
	for gi := range res.Groups {
		g := &res.Groups[gi]
		ws := g.Merged.Agg.Workload()
		if ws == nil || !ws.HasData() {
			t.Fatalf("group %s: workload-enabled sweep produced no workload stats", g.Name())
		}
		arts[g.Name()] = analysis.RenderTable5(g.Merged.Table5Rows(), g.Merged.LatencyLabel()) +
			analysis.RenderTable6(g.Merged.Agg.HighLossHours()) +
			analysis.RenderWorkloadTable(ws.Table())
	}

	keys := make([]string, 0, len(arts))
	for k := range arts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sum := sha256.Sum256([]byte(arts[k]))
		got := hex.EncodeToString(sum[:])
		if os.Getenv("GOLDEN_PRINT") != "" {
			fmt.Printf("\t%q: %q,\n", k, got)
			continue
		}
		want, ok := goldenWorkloadSweepDigests[k]
		if !ok {
			t.Errorf("%s: no golden digest recorded (got %s)", k, got)
			continue
		}
		if got != want {
			t.Errorf("%s: workload sweep output changed\n  got  %s\n  want %s",
				k, got, want)
		}
	}
	if len(res.Groups) != len(goldenWorkloadSweepDigests)-1 {
		t.Errorf("sweep produced %d groups, golden set has %d", len(res.Groups), len(goldenWorkloadSweepDigests)-1)
	}
}
