package netsim

import (
	"testing"

	"repro/internal/topo"
)

// calibStats runs a compressed measurement campaign over the simulated
// substrate and reports the headline statistics the paper's Table 5 and
// §4.4 hinge on. It is shared by the calibration tests below and (with
// -v) doubles as a quick diagnostic readout.
type calibStats struct {
	directLoss   float64 // overall direct loss fraction
	clpDD        float64 // CLP back-to-back same path
	clpDD10      float64 // CLP 10 ms gap
	clpDD20      float64 // CLP 20 ms gap
	clpRand      float64 // CLP second copy via random intermediate
	totDD        float64 // P(both lost), back-to-back
	totRand      float64 // P(both lost), direct+rand
	randLoss     float64 // loss rate of the random-intermediate copies
	meanLatMS    float64 // mean direct one-way latency, ms
	meshLatMS    float64 // mean min(direct,rand) latency over delivered
	edgeDropFrac float64 // fraction of direct drops at access components
}

func runCalibration(t testing.TB, seed uint64, days float64) calibStats {
	tb := topo.RON2003()
	nw := New(tb, nil, seed)
	rng := NewSource(seed ^ 0xCA11B)
	n := tb.N()

	var (
		sent, directLost                   float64
		ddFirstLost, ddBothLost            float64
		dd10FirstLost, dd10BothLost        float64
		dd20FirstLost, dd20BothLost        float64
		randFirstLost, randBothLost        float64
		randSent, randLost                 float64
		latSum, latN, meshLatSum, meshLatN float64
		edgeDrops, allDrops                float64
	)

	end := Time(days * float64(Day))
	// One probe round every 300 ms of virtual time keeps the test fast
	// while sampling each path often enough for stable statistics.
	for now := Time(0); now < end; now += 300 * Millisecond {
		src := rng.Intn(n)
		dst := rng.Intn(n - 1)
		if dst >= src {
			dst++
		}
		via := rng.Intn(n)
		for via == src || via == dst {
			via = rng.Intn(n)
		}

		// direct single
		o := nw.Send(now, Direct(src, dst))
		sent++
		if !o.Delivered {
			directLost++
			allDrops++
			if o.DropClass == ClassAccess {
				edgeDrops++
			}
		} else {
			latSum += o.Latency.Duration().Seconds() * 1000
			latN++
		}

		// dd pairs at 0/10/20 ms
		first := nw.Send(now, Direct(src, dst))
		if !first.Delivered {
			ddFirstLost++
			if o2 := nw.Send(now, Direct(src, dst)); !o2.Delivered {
				ddBothLost++
			}
		}
		f10 := nw.Send(now, Direct(src, dst))
		if !f10.Delivered {
			dd10FirstLost++
			if o2 := nw.Send(now+10*Millisecond, Direct(src, dst)); !o2.Delivered {
				dd10BothLost++
			}
		}
		f20 := nw.Send(now, Direct(src, dst))
		if !f20.Delivered {
			dd20FirstLost++
			if o2 := nw.Send(now+20*Millisecond, Direct(src, dst)); !o2.Delivered {
				dd20BothLost++
			}
		}

		// direct rand pair (both copies always sent, as in the paper)
		fr := nw.Send(now, Direct(src, dst))
		or := nw.Send(now, Indirect(src, dst, via))
		randSent++
		if !or.Delivered {
			randLost++
		}
		if !fr.Delivered {
			randFirstLost++
			if !or.Delivered {
				randBothLost++
			}
		}
		if fr.Delivered || or.Delivered {
			lat := or.Latency
			if fr.Delivered && (!or.Delivered || fr.Latency < or.Latency) {
				lat = fr.Latency
			}
			meshLatSum += lat.Duration().Seconds() * 1000
			meshLatN++
		}
	}

	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	s := calibStats{
		directLoss:   div(directLost, sent),
		clpDD:        div(ddBothLost, ddFirstLost),
		clpDD10:      div(dd10BothLost, dd10FirstLost),
		clpDD20:      div(dd20BothLost, dd20FirstLost),
		clpRand:      div(randBothLost, randFirstLost),
		totDD:        div(ddBothLost, sent),
		totRand:      div(randBothLost, randSent),
		randLoss:     div(randLost, randSent),
		meanLatMS:    div(latSum, latN),
		meshLatMS:    div(meshLatSum, meshLatN),
		edgeDropFrac: div(edgeDrops, allDrops),
	}
	t.Logf("calibration(seed=%d, days=%.2f): direct=%.4f%% clpDD=%.1f%% "+
		"clpDD10=%.1f%% clpDD20=%.1f%% clpRand=%.1f%% totDD=%.4f%% totRand=%.4f%% "+
		"randLoss=%.3f%% lat=%.1fms meshLat=%.1fms edgeShare=%.2f",
		seed, days, s.directLoss*100, s.clpDD*100, s.clpDD10*100, s.clpDD20*100,
		s.clpRand*100, s.totDD*100, s.totRand*100, s.randLoss*100,
		s.meanLatMS, s.meshLatMS, s.edgeDropFrac)
	return s
}

// TestCalibrationBands checks the substrate against the paper's headline
// statistics (§4.2–§4.5; bands, not point values), named by their rows
// in the root package's published table (fidelity_test.go).
func TestCalibrationBands(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration needs a multi-day virtual campaign")
	}
	s := runCalibration(t, 7, 4)

	check := func(name string, got, lo, hi float64) {
		t.Helper()
		if got < lo || got > hi {
			t.Errorf("%s = %.4f, want within [%.4f, %.4f]", name, got, lo, hi)
		}
	}
	// Rows "loss of direct*" and "loss of direct (2002)".
	check("direct loss", s.directLoss, 0.002, 0.008)
	// Rows "CLP direct direct", "CLP dd 10 ms", "CLP dd 20 ms" and "CLP
	// direct rand".
	check("CLP direct direct", s.clpDD, 0.60, 0.85)
	check("CLP dd 10ms", s.clpDD10, 0.55, 0.80)
	check("CLP dd 20ms", s.clpDD20, 0.50, 0.78)
	check("CLP direct rand", s.clpRand, 0.45, 0.72)
	// Row "CLP falls with spacing". The paper's dd10 and dd20 sit about
	// a point apart, so allow sampling noise between them.
	const eps = 0.04
	if !(s.clpDD > s.clpDD10+0.02) {
		t.Errorf("want CLP(dd)=%.3f > CLP(dd10)=%.3f", s.clpDD, s.clpDD10)
	}
	if !(s.clpDD10 >= s.clpDD20-eps) {
		t.Errorf("want CLP(dd10)=%.3f >= CLP(dd20)=%.3f (±%.2f)", s.clpDD10, s.clpDD20, eps)
	}
	if !(s.clpDD20 > s.clpRand+0.05) {
		t.Errorf("want CLP(dd20)=%.3f > CLP(rand)=%.3f", s.clpDD20, s.clpRand)
	}
	// Mesh must beat plain redundancy: P(both lost) lower for direct rand.
	if !(s.totRand < s.totDD) {
		t.Errorf("want totlp(direct rand)=%.5f < totlp(dd)=%.5f", s.totRand, s.totDD)
	}
	// Rows "rand-copy loss", "rand-copy loss (2002)" and "rand-copy loss
	// (RONwide)"; band generously.
	check("rand copy loss", s.randLoss, 0.004, 0.035)
	// Row "direct latency".
	check("mean direct latency ms", s.meanLatMS, 35, 75)
	// Row "mesh latency cut".
	if !(s.meshLatMS < s.meanLatMS) {
		t.Errorf("mesh latency %.2f should undercut direct %.2f",
			s.meshLatMS, s.meanLatMS)
	}
	// Most loss must live at the shared edge (§2.4, [14]).
	check("edge share of drops", s.edgeDropFrac, 0.55, 0.95)
}

// TestCalibrationSeedStability ensures the bands are not a fluke of one
// seed: a second seed must land in the same coarse region.
func TestCalibrationSeedStability(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration needs a multi-day virtual campaign")
	}
	s := runCalibration(t, 1234, 2)
	if s.directLoss < 0.001 || s.directLoss > 0.012 {
		t.Errorf("direct loss %.4f out of coarse band", s.directLoss)
	}
	if s.clpDD < 0.5 || s.clpRand < 0.35 {
		t.Errorf("CLPs collapsed: dd=%.3f rand=%.3f", s.clpDD, s.clpRand)
	}
	if s.clpRand >= s.clpDD {
		t.Errorf("want CLP(rand)=%.3f < CLP(dd)=%.3f", s.clpRand, s.clpDD)
	}
}
