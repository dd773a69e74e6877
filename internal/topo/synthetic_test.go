package topo

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

func TestSyntheticSymmetry(t *testing.T) {
	for _, n := range []int{2, 30, 64, 257} {
		tb := Synthetic(n)
		if tb.N() != n {
			t.Fatalf("n=%d: got %d hosts", n, tb.N())
		}
		for i := 0; i < n; i++ {
			if tb.BaseOneWay(i, i) != 0 {
				t.Fatalf("n=%d: nonzero self latency at %d", n, i)
			}
			for j := i + 1; j < n; j++ {
				if tb.BaseOneWay(i, j) != tb.BaseOneWay(j, i) {
					t.Fatalf("n=%d: asymmetric base latency %d↔%d: %v vs %v",
						n, i, j, tb.BaseOneWay(i, j), tb.BaseOneWay(j, i))
				}
				if tb.BaseOneWay(i, j) < 500*time.Microsecond {
					t.Fatalf("n=%d: base latency %d→%d below processing floor: %v",
						n, i, j, tb.BaseOneWay(i, j))
				}
			}
		}
	}
}

func TestSyntheticTriangleViolationRate(t *testing.T) {
	for _, n := range []int{64, 256, 1024} {
		rate := triangleViolationRate(Synthetic(n), 20000)
		if rate <= 0 {
			t.Errorf("n=%d: no triangle-inequality violations — the synthetic "+
				"world is metric, overlay indirection could never help latency", n)
		}
		if rate > synTriangleViolationMax {
			t.Errorf("n=%d: triangle violation rate %.3f exceeds bound %.3f",
				n, rate, synTriangleViolationMax)
		}
	}
}

func TestSyntheticClassMix(t *testing.T) {
	// The generator scales Table 2's census (10/7/5/5/3 of 30); at n=300
	// the apportionment is exact.
	tb := Synthetic(300)
	counts := categoryCounts(tb)
	want := map[Kind]int{
		KindISP: 100, KindUniversity: 70, KindCompany: 50,
		KindIntl: 50, KindBroadband: 30,
	}
	for k, w := range want {
		if counts[k] != w {
			t.Errorf("n=300: %v count = %d, want %d", k, counts[k], w)
		}
	}
	for i := 0; i < tb.N(); i++ {
		h := tb.Host(i)
		if h.Name != fmt.Sprintf("S%03d", i) {
			t.Fatalf("host %d named %q", i, h.Name)
		}
		// Non-intl hosts embed in US metros (west of -60°), intl hosts
		// in Europe/Asia metros (east of -30°).
		if intl := h.Kind == KindIntl; intl != (h.LonDeg > -30) {
			t.Fatalf("host %d kind %v at lon %.1f: wrong metro pool",
				i, h.Kind, h.LonDeg)
		}
	}
}

func TestSyntheticSeedSensitivity(t *testing.T) {
	a := SyntheticSeeded(64, 1)
	b := SyntheticSeeded(64, 2)
	if fingerprint(a) == fingerprint(b) {
		t.Fatal("different seeds produced identical testbeds")
	}
	if fingerprint(a) != fingerprint(SyntheticSeeded(64, 1)) {
		t.Fatal("same seed produced different testbeds in-process")
	}
}

func TestSyntheticValidate(t *testing.T) {
	for _, n := range []int{-1, 0, 1, MaxSyntheticNodes + 1} {
		if err := ValidateSyntheticSize(n); err == nil {
			t.Errorf("ValidateSyntheticSize(%d) = nil, want error", n)
		} else if !strings.Contains(err.Error(), "out of range") {
			t.Errorf("ValidateSyntheticSize(%d) error %q lacks range hint", n, err)
		}
	}
	if err := ValidateSyntheticSize(2); err != nil {
		t.Errorf("ValidateSyntheticSize(2) = %v", err)
	}
	if err := ValidateSyntheticSize(MaxSyntheticNodes); err != nil {
		t.Errorf("ValidateSyntheticSize(max) = %v", err)
	}
}

// TestSyntheticCrossProcessDeterminism re-runs the generator in a child
// process (the helper below) and compares fingerprints: identical (n,
// seed) must yield bit-identical worlds across process boundaries, or
// sharded sweep workers would disagree about the topology.
func TestSyntheticCrossProcessDeterminism(t *testing.T) {
	if os.Getenv("TOPO_FINGERPRINT_HELPER") == "1" {
		fmt.Printf("fingerprint=%#x\n", fingerprint(Synthetic(256)))
		os.Exit(0)
	}
	local := fmt.Sprintf("fingerprint=%#x", fingerprint(Synthetic(256)))
	cmd := exec.Command(os.Args[0], "-test.run=TestSyntheticCrossProcessDeterminism")
	cmd.Env = append(os.Environ(), "TOPO_FINGERPRINT_HELPER=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("helper process failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), local) {
		t.Fatalf("cross-process fingerprint mismatch: want %s in helper output:\n%s",
			local, out)
	}
}

// synTriangleViolationMax bounds the fraction of (i,j,k) triples whose
// direct base latency exceeds the two-hop composition via k. Values far
// above it would mean the generator produced an anti-metric world where
// "direct" has lost its meaning.
const synTriangleViolationMax = 0.35

// triangleViolationRate samples up to maxTriples ordered triples
// (i,j,k) deterministically and reports the fraction whose direct base
// latency exceeds the composition via k (ignoring per-hop processing,
// the geometric definition).
func triangleViolationRate(tb *Testbed, maxTriples int) float64 {
	n := tb.N()
	if n < 3 || maxTriples <= 0 {
		return 0
	}
	rng := &synRNG{state: 0xA11CE}
	violations, total := 0, 0
	for total < maxTriples {
		i := rng.intn(n)
		j := rng.intn(n)
		k := rng.intn(n)
		if i == j || j == k || i == k {
			continue
		}
		total++
		if tb.baseOneWay[i][j] > tb.baseOneWay[i][k]+tb.baseOneWay[k][j] {
			violations++
		}
	}
	return float64(violations) / float64(total)
}

// fingerprint folds every host field and base latency into one 64-bit
// digest — the cross-process determinism witness (two processes
// generating the same (n, seed) must agree on it). math.Float64bits
// keeps the fold exact; any coordinate or latency drift changes it.
func fingerprint(tb *Testbed) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	mix := func(v uint64) { h = synSplitMix(h ^ v) }
	for _, host := range tb.hosts {
		for _, b := range []byte(host.Name) {
			mix(uint64(b))
		}
		mix(uint64(host.Kind))
		mix(uint64(host.Access))
		mix(math.Float64bits(host.LonDeg))
		mix(math.Float64bits(host.LatDeg))
	}
	for i := range tb.hosts {
		for j := range tb.hosts {
			mix(uint64(tb.baseOneWay[i][j]))
		}
	}
	return h
}
