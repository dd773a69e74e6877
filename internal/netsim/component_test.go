package netsim

import (
	"testing"
	"time"
)

// testParams returns a component parameterization with fast dynamics so
// unit tests can observe many state transitions quickly.
func testParams() ComponentParams {
	return ComponentParams{
		MeanGood:     200 * time.Millisecond,
		MeanBadShort: 10 * time.Millisecond,
		MeanBadLong:  500 * time.Millisecond,
		ShortWeight:  0.9,
		DropProbMin:  0.6,
		DropProbMax:  0.9,
		MeanUp:       time.Hour,
		MeanDown:     2 * time.Second,
		QueueMean:    2 * time.Millisecond,
		JitterMean:   200 * time.Microsecond,
	}
}

func testProfile() *Profile {
	p := DefaultProfile()
	return p
}

func newTestComponent(seed uint64, params ComponentParams) *Component {
	return newComponent(1, seed, ClassAccess, testProfile(), params, nil)
}

func TestComponentDeterminism(t *testing.T) {
	a := newTestComponent(11, testParams())
	b := newTestComponent(11, testParams())
	for i := 0; i < 10000; i++ {
		tm := Time(i) * 3 * Millisecond
		da, la := a.Transit(tm, uint64(i), 0)
		db, lb := b.Transit(tm, uint64(i), 0)
		if da != db || la != lb {
			t.Fatalf("same-seed components diverged at step %d", i)
		}
	}
}

func TestComponentSeedsDiffer(t *testing.T) {
	a := newTestComponent(11, testParams())
	b := newTestComponent(12, testParams())
	same := 0
	const n = 20000
	for i := 0; i < n; i++ {
		tm := Time(i) * Millisecond
		da, _ := a.Transit(tm, uint64(i), 0)
		db, _ := b.Transit(tm, uint64(i), 0)
		if da == db {
			same++
		}
	}
	if same == n {
		t.Error("different seeds produced identical drop sequences")
	}
}

func TestComponentLossRateMatchesStationary(t *testing.T) {
	params := testParams()
	params.MeanUp = 1000 * time.Hour // effectively no outages
	c := newTestComponent(7, params)
	var drops, sent int
	for i := 0; i < 400000; i++ {
		tm := Time(i) * Millisecond
		d, _ := c.Transit(tm, uint64(i), 0)
		sent++
		if d {
			drops++
		}
	}
	// Stationary congested fraction: meanBad/(meanGood+meanBad) with
	// meanBad = 0.9*10ms+0.1*500ms = 59ms → π ≈ 0.228; mean severity
	// 0.75 → loss ≈ 17%. Diurnal modulation averages out over the run
	// but we only cover ~7 minutes of virtual time, so band loosely.
	got := float64(drops) / float64(sent)
	if got < 0.05 || got > 0.40 {
		t.Errorf("loss fraction = %.4f, want within [0.05,0.40]", got)
	}
}

func TestComponentBurstCorrelation(t *testing.T) {
	// Inside a burst, back-to-back packets must be dropped with the
	// burst severity — the CLP mechanism of §4.4. Conditional loss of a
	// packet sent immediately after a dropped one must far exceed the
	// unconditional rate.
	params := testParams()
	params.MeanUp = 1000 * time.Hour
	c := newTestComponent(3, params)
	var firstDrops, bothDrops, drops, sent int
	for i := 0; i < 300000; i++ {
		tm := Time(i) * 2 * Millisecond
		d1, _ := c.Transit(tm, uint64(i)*2, 0)
		sent++
		if d1 {
			drops++
			firstDrops++
			d2, _ := c.Transit(tm, uint64(i)*2+1, 0)
			if d2 {
				bothDrops++
			}
		}
	}
	uncond := float64(drops) / float64(sent)
	clp := float64(bothDrops) / float64(firstDrops)
	if clp < 0.5 {
		t.Errorf("in-burst CLP = %.3f, want > 0.5", clp)
	}
	if clp < 2*uncond {
		t.Errorf("CLP %.3f should far exceed unconditional %.3f", clp, uncond)
	}
}

func TestComponentOutageBlocksEverything(t *testing.T) {
	params := testParams()
	params.MeanUp = 500 * time.Millisecond // fail fast
	params.MeanDown = 10 * time.Second
	c := newTestComponent(5, params)
	// Walk until the outage process takes the component down.
	var sawDown bool
	for i := 0; i < 1000000 && !sawDown; i++ {
		tm := Time(i) * 10 * Millisecond
		down, _, _ := c.Probe(tm)
		if down {
			sawDown = true
			// While down, every packet must drop regardless of key.
			for k := uint64(0); k < 50; k++ {
				if drop, _ := c.Transit(tm, k, 0); !drop {
					t.Fatal("packet delivered through a down component")
				}
			}
		}
	}
	if !sawDown {
		t.Fatal("outage process never took the component down")
	}
}

func TestComponentRecoversFromOutage(t *testing.T) {
	params := testParams()
	params.MeanUp = 200 * time.Millisecond
	params.MeanDown = time.Second
	c := newTestComponent(9, params)
	var wentDown, cameBack bool
	for i := 0; i < 2000000; i++ {
		tm := Time(i) * 5 * Millisecond
		down, _, _ := c.Probe(tm)
		if down {
			wentDown = true
		} else if wentDown {
			cameBack = true
			break
		}
	}
	if !wentDown || !cameBack {
		t.Errorf("outage cycle incomplete: down=%v up-again=%v", wentDown, cameBack)
	}
}

func TestComponentEpisodeRaisesLoss(t *testing.T) {
	params := testParams()
	params.MeanGood = 30 * time.Second // quiet baseline
	params.MeanUp = 1000 * time.Hour
	params.EpisodeEvery = 2 * time.Minute
	params.EpisodeMean = 5 * time.Minute
	params.EpisodeBoostMin, params.EpisodeBoostMax = 200, 400
	c := newTestComponent(13, params)

	// Measure loss in one-minute buckets over a virtual hour; episodes
	// must create buckets with far higher loss than the baseline.
	const bucketMS = 60 * 1000
	var lossByBucket []float64
	var drops, sent int
	for i := 0; i < 60*60*20; i++ { // 20 packets/s for an hour
		tm := Time(i) * 50 * Millisecond
		d, _ := c.Transit(tm, uint64(i), 0)
		sent++
		if d {
			drops++
		}
		if sent == bucketMS/50 {
			lossByBucket = append(lossByBucket, float64(drops)/float64(sent))
			drops, sent = 0, 0
		}
	}
	var lo, hi int
	for _, l := range lossByBucket {
		if l < 0.01 {
			lo++
		}
		if l > 0.10 {
			hi++
		}
	}
	if lo == 0 {
		t.Error("no quiet minutes observed; baseline too lossy")
	}
	if hi == 0 {
		t.Error("no high-loss minutes observed; episodes had no effect")
	}
}

func TestComponentLatencyEpisodeInflates(t *testing.T) {
	params := testParams()
	params.MeanGood = 1000 * time.Hour // no congestion noise
	params.MeanUp = 1000 * time.Hour
	params.LatEpisodeEvery = time.Minute
	params.LatEpisodeMean = 5 * time.Minute
	params.LatInflateMin = 200 * time.Millisecond
	params.LatInflateMax = time.Second
	c := newTestComponent(21, params)

	var inflated, normal int
	for i := 0; i < 200000; i++ {
		tm := Time(i) * 10 * Millisecond
		drop, delay := c.Transit(tm, uint64(i), 0)
		if drop {
			t.Fatal("unexpected drop with congestion and outages disabled")
		}
		if delay >= 200*Millisecond {
			inflated++
		} else {
			normal++
		}
	}
	if inflated == 0 {
		t.Error("latency episodes never inflated delay")
	}
	if normal == 0 {
		t.Error("delay always inflated; episode process stuck on")
	}
}

func TestComponentQueueingDelayUnderCongestion(t *testing.T) {
	params := testParams()
	params.MeanGood = 10 * time.Millisecond // congest almost always
	params.MeanBadLong = 10 * time.Second
	params.ShortWeight = 0
	params.DropProbMin, params.DropProbMax = 0.0, 0.01 // rarely drop
	params.MeanUp = 1000 * time.Hour
	c := newTestComponent(17, params)
	var congSum, congN float64
	for i := 0; i < 50000; i++ {
		tm := Time(i) * Millisecond
		_, congested, _ := c.Probe(tm)
		drop, delay := c.Transit(tm, uint64(i), 0)
		if congested && !drop {
			congSum += float64(delay)
			congN++
		}
	}
	if congN == 0 {
		t.Fatal("component never congested despite tiny MeanGood")
	}
	meanDelay := Time(congSum / congN)
	// Queueing (2 ms mean) should dominate jitter (0.2 ms mean).
	if meanDelay < Millisecond {
		t.Errorf("mean congested delay = %v, want > 1ms", meanDelay.Duration())
	}
}

func TestTransitOutOfOrderQueriesDoNotPanic(t *testing.T) {
	c := newTestComponent(2, testParams())
	c.Transit(Second, 1, 0)
	// A query in the past observes current state but must be safe.
	drop, delay := c.Transit(500*Millisecond, 2, 0)
	_ = drop
	if delay < 0 {
		t.Error("negative delay")
	}
	if c.now != Second {
		t.Errorf("component time went backwards: %v", c.now)
	}
}

func TestPerPacketDecisionIndependentOfQueryHistory(t *testing.T) {
	// Two identically seeded components must give the same verdict for
	// a packet even if one of them served extra queries in between:
	// per-packet randomness is hash-derived, not stream-derived. State
	// evolution draws are stream-derived, so keep both on the same
	// timeline (queries at identical times).
	a := newTestComponent(4, testParams())
	b := newTestComponent(4, testParams())
	for i := 0; i < 2000; i++ {
		tm := Time(i) * 7 * Millisecond
		da, _ := a.Transit(tm, 1000+uint64(i), 0)
		// b serves the same query plus extra same-time queries with
		// other packet keys.
		db, _ := b.Transit(tm, 1000+uint64(i), 0)
		b.Transit(tm, 900000+uint64(i), 0)
		b.Transit(tm, 800000+uint64(i), 1)
		if da != db {
			t.Fatalf("packet verdict changed due to unrelated queries at step %d", i)
		}
	}
}
