package analysis

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestObservationEffective(t *testing.T) {
	cases := []struct {
		name     string
		o        Observation
		wantLost bool
		wantLat  time.Duration
		wantOK   bool
	}{
		{"single delivered", Observation{Copies: 1, Lat: [2]time.Duration{10 * time.Millisecond}}, false, 10 * time.Millisecond, true},
		{"single lost", Observation{Copies: 1, Lost: [2]bool{true}}, true, 0, false},
		{"pair both ok", Observation{Copies: 2, Lat: [2]time.Duration{30 * time.Millisecond, 20 * time.Millisecond}}, false, 20 * time.Millisecond, true},
		{"pair first lost", Observation{Copies: 2, Lost: [2]bool{true, false}, Lat: [2]time.Duration{0, 25 * time.Millisecond}}, false, 25 * time.Millisecond, true},
		{"pair second lost", Observation{Copies: 2, Lost: [2]bool{false, true}, Lat: [2]time.Duration{15 * time.Millisecond, 0}}, false, 15 * time.Millisecond, true},
		{"pair both lost", Observation{Copies: 2, Lost: [2]bool{true, true}}, true, 0, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.o.EffectiveLost(); got != c.wantLost {
				t.Errorf("EffectiveLost = %v, want %v", got, c.wantLost)
			}
			lat, ok := c.o.EffectiveLatency()
			if ok != c.wantOK || lat != c.wantLat {
				t.Errorf("EffectiveLatency = (%v,%v), want (%v,%v)",
					lat, ok, c.wantLat, c.wantOK)
			}
		})
	}
}

func TestObservationValidate(t *testing.T) {
	good := Observation{Method: 0, Src: 0, Dst: 1, Copies: 1}
	if err := good.Validate(2, 3); err != nil {
		t.Errorf("valid observation rejected: %v", err)
	}
	bad := []Observation{
		{Method: 2, Src: 0, Dst: 1, Copies: 1},
		{Method: 0, Src: 0, Dst: 0, Copies: 1},
		{Method: 0, Src: 0, Dst: 5, Copies: 1},
		{Method: 0, Src: -1, Dst: 1, Copies: 1},
		{Method: 0, Src: 0, Dst: 1, Copies: 3},
		{Method: 0, Src: 0, Dst: 1, Copies: 0},
	}
	for i, o := range bad {
		if err := o.Validate(2, 3); err == nil {
			t.Errorf("bad observation %d accepted", i)
		}
	}
}

func TestCDFBasics(t *testing.T) {
	c := &CDF{}
	if c.FractionAtMost(5) != 0 || c.Quantile(0.5) != 0 || c.Mean() != 0 {
		t.Error("empty CDF should return zeros")
	}
	for _, v := range []float64{1, 2, 3, 4} {
		c.Add(v)
	}
	if got := c.FractionAtMost(2); got != 0.5 {
		t.Errorf("F(2) = %v, want 0.5", got)
	}
	if got := c.FractionAtMost(0.5); got != 0 {
		t.Errorf("F(0.5) = %v, want 0", got)
	}
	if got := c.FractionAtMost(4); got != 1 {
		t.Errorf("F(4) = %v, want 1", got)
	}
	if got := c.Mean(); got != 2.5 {
		t.Errorf("mean = %v, want 2.5", got)
	}
	if got := c.Max(); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if got := c.Quantile(0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := c.Quantile(1); got != 4 {
		t.Errorf("q1 = %v, want 4", got)
	}
	// Adding after query must resort correctly.
	c.Add(0)
	if got := c.FractionAtMost(0); got != 0.2 {
		t.Errorf("F(0) after append = %v, want 0.2", got)
	}
}

func TestCDFGridMonotone(t *testing.T) {
	c := &CDF{}
	for i := 0; i < 1000; i++ {
		c.Add(float64(i % 97))
	}
	pts := c.Grid(0, 100, 50)
	if len(pts) != 50 {
		t.Fatalf("grid size = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].F < pts[i-1].F {
			t.Fatal("CDF grid not monotone")
		}
	}
	if pts[len(pts)-1].F != 1 {
		t.Error("grid must reach 1 at the top")
	}
}

func newTestAgg() *Aggregator {
	return NewAggregator([]string{"direct", "direct rand"}, 3)
}

func TestAggregatorTotals(t *testing.T) {
	a := newTestAgg()
	// direct: 4 probes, 1 lost.
	for i := 0; i < 4; i++ {
		o := Observation{Method: 0, Src: 0, Dst: 1, Time: int64(i) * int64(time.Second), Copies: 1}
		if i == 0 {
			o.Lost[0] = true
		} else {
			o.Lat[0] = 50 * time.Millisecond
		}
		a.Observe(o)
	}
	mt := a.Totals(0)
	if mt.FirstLossPct != 25 || mt.TotalLossPct != 25 {
		t.Errorf("direct: 1lp=%v totlp=%v, want 25/25", mt.FirstLossPct, mt.TotalLossPct)
	}
	if mt.Pair {
		t.Error("direct marked as pair")
	}
	if mt.MeanLatency != 50*time.Millisecond {
		t.Errorf("mean latency = %v, want 50ms", mt.MeanLatency)
	}

	// direct rand: 4 pairs: first lost twice; of those, second lost once.
	pairs := []Observation{
		{Lost: [2]bool{true, true}},
		{Lost: [2]bool{true, false}, Lat: [2]time.Duration{0, 80 * time.Millisecond}},
		{Lost: [2]bool{false, false}, Lat: [2]time.Duration{40 * time.Millisecond, 90 * time.Millisecond}},
		{Lost: [2]bool{false, true}, Lat: [2]time.Duration{60 * time.Millisecond, 0}},
	}
	for i, o := range pairs {
		o.Method, o.Src, o.Dst, o.Copies = 1, 0, 2, 2
		o.Time = int64(i) * int64(time.Second)
		a.Observe(o)
	}
	mt = a.Totals(1)
	if mt.FirstLossPct != 50 {
		t.Errorf("1lp = %v, want 50", mt.FirstLossPct)
	}
	if mt.SecondLossPct != 50 {
		t.Errorf("2lp = %v, want 50", mt.SecondLossPct)
	}
	if mt.TotalLossPct != 25 {
		t.Errorf("totlp = %v, want 25", mt.TotalLossPct)
	}
	if mt.CondLossPct != 50 {
		t.Errorf("clp = %v, want 50 (1 of 2 first-losses)", mt.CondLossPct)
	}
	// Effective latencies: 80, 40 (min of 40/90), 60 → mean 60ms.
	if mt.MeanLatency != 60*time.Millisecond {
		t.Errorf("mean latency = %v, want 60ms", mt.MeanLatency)
	}
	if !mt.Pair {
		t.Error("direct rand not marked as pair")
	}
}

func TestAggregatorWindows(t *testing.T) {
	a := newTestAgg()
	// Two full 20-minute windows on one path: first window 50% loss,
	// second 0%.
	base := int64(0)
	for i := 0; i < 10; i++ {
		a.Observe(Observation{Method: 0, Src: 0, Dst: 1,
			Time: base + int64(i)*int64(time.Minute), Copies: 1,
			Lost: [2]bool{i%2 == 0}})
	}
	for i := 0; i < 10; i++ {
		a.Observe(Observation{Method: 0, Src: 0, Dst: 1,
			Time: int64(WindowShort) + int64(i)*int64(time.Minute), Copies: 1,
			Lat: [2]time.Duration{time.Millisecond}})
	}
	// First window flushed when the second began.
	c := a.WindowRateCDF(0)
	if c.N() != 1 {
		t.Fatalf("flushed windows = %d, want 1", c.N())
	}
	if got := c.samples()[0]; got != 0.5 {
		t.Errorf("window rate = %v, want 0.5", got)
	}
	a.Flush()
	if c.N() != 2 {
		t.Fatalf("after Flush windows = %d, want 2", c.N())
	}
	if got := c.FractionAtMost(0); got != 0.5 {
		t.Errorf("F(0) = %v, want 0.5 (one clean window)", got)
	}
}

func TestAggregatorTable6(t *testing.T) {
	a := newTestAgg()
	// Hour 0 on path 0→1: 25% loss; hour 1: 0%.
	for i := 0; i < 8; i++ {
		a.Observe(Observation{Method: 0, Src: 0, Dst: 1,
			Time: int64(i) * int64(7*time.Minute), Copies: 1,
			Lost: [2]bool{i%4 == 0}})
	}
	for i := 0; i < 4; i++ {
		a.Observe(Observation{Method: 0, Src: 0, Dst: 1,
			Time: int64(time.Hour) + int64(i)*int64(time.Minute), Copies: 1,
			Lat: [2]time.Duration{time.Millisecond}})
	}
	a.Flush()
	t6 := a.HighLossHours()
	if t6.Periods[0] != 2 {
		t.Fatalf("periods = %d, want 2", t6.Periods[0])
	}
	// 25% loss hour exceeds thresholds 0,10,20 but not 30.
	wantCounts := []int64{1, 1, 1, 0, 0, 0, 0, 0, 0, 0}
	for k := range wantCounts {
		if t6.Counts[0][k] != wantCounts[k] {
			t.Errorf("counts[%d] = %d, want %d (thr %.0f)",
				k, t6.Counts[0][k], wantCounts[k], t6.Thresholds[k])
		}
	}
	if math.Abs(t6.WorstHourPct-25) > 1e-9 {
		t.Errorf("worst hour = %v, want 25", t6.WorstHourPct)
	}
}

func TestAggregatorPathCDFs(t *testing.T) {
	a := newTestAgg()
	// Path 0→1: 10% loss; path 1→2: 0%.
	for i := 0; i < 10; i++ {
		a.Observe(Observation{Method: 0, Src: 0, Dst: 1,
			Time: int64(i) * int64(time.Second), Copies: 1,
			Lost: [2]bool{i == 0}, Lat: [2]time.Duration{100 * time.Millisecond}})
		a.Observe(Observation{Method: 0, Src: 1, Dst: 2,
			Time: int64(i) * int64(time.Second), Copies: 1,
			Lat: [2]time.Duration{10 * time.Millisecond}})
	}
	c := a.PathLossCDF(0, 1)
	if c.N() != 2 {
		t.Fatalf("paths = %d, want 2", c.N())
	}
	if got := c.FractionAtMost(0); got != 0.5 {
		t.Errorf("F(0) = %v, want 0.5", got)
	}
	if got := c.FractionAtMost(10); got != 1.0 {
		t.Errorf("F(10) = %v, want 1", got)
	}
	// Min-probes filter.
	if a.PathLossCDF(0, 11).N() != 0 {
		t.Error("minProbes filter ignored")
	}
	// Latency CDF restricted to slow paths: only 0→1 (100ms ≥ 50ms).
	lc := a.PathLatencyCDF(0, 0, 50*time.Millisecond)
	if lc.N() != 1 {
		t.Fatalf("latency CDF paths = %d, want 1", lc.N())
	}
	if got := lc.samples()[0]; math.Abs(got-100) > 1 {
		t.Errorf("latency sample = %v ms, want ≈100 (lossy path mean)", got)
	}
	if a.pathCount(0) != 2 {
		t.Errorf("PathCount = %d, want 2", a.pathCount(0))
	}
}

func TestAggregatorCLPByPath(t *testing.T) {
	a := newTestAgg()
	// Path 0→1: first lost 2, both lost 1 → CLP 50. Path 0→2: no first
	// losses → excluded.
	obs := []Observation{
		{Lost: [2]bool{true, true}},
		{Lost: [2]bool{true, false}, Lat: [2]time.Duration{0, time.Millisecond}},
		{Lost: [2]bool{false, false}, Lat: [2]time.Duration{time.Millisecond, time.Millisecond}},
	}
	for i, o := range obs {
		o.Method, o.Src, o.Dst, o.Copies = 1, 0, 1, 2
		o.Time = int64(i) * int64(time.Second)
		a.Observe(o)
	}
	a.Observe(Observation{Method: 1, Src: 0, Dst: 2, Copies: 2,
		Lat: [2]time.Duration{time.Millisecond, time.Millisecond}})
	c := a.CLPByPathCDF(1)
	if c.N() != 1 {
		t.Fatalf("CLP paths = %d, want 1 (paths with first losses only)", c.N())
	}
	if got := c.samples()[0]; got != 50 {
		t.Errorf("CLP = %v, want 50", got)
	}
}

func TestAggregatorPanicsOnBadObservation(t *testing.T) {
	a := newTestAgg()
	defer func() {
		if recover() == nil {
			t.Error("invalid observation did not panic")
		}
	}()
	a.Observe(Observation{Method: 99, Src: 0, Dst: 1, Copies: 1})
}

func TestMethodIndex(t *testing.T) {
	a := newTestAgg()
	if a.MethodIndex("direct") != 0 || a.MethodIndex("direct rand") != 1 {
		t.Error("MethodIndex lookup broken")
	}
	if a.MethodIndex("nope") != -1 {
		t.Error("missing method should be -1")
	}
}

func TestRenderers(t *testing.T) {
	a := newTestAgg()
	a.Observe(Observation{Method: 0, Src: 0, Dst: 1, Copies: 1,
		Lat: [2]time.Duration{54 * time.Millisecond}})
	a.Observe(Observation{Method: 1, Src: 0, Dst: 1, Copies: 2,
		Lost: [2]bool{true, false}, Lat: [2]time.Duration{0, 60 * time.Millisecond}})
	a.Flush()

	s := RenderTable5(a.Table5(), "")
	if !strings.Contains(s, "direct rand") || !strings.Contains(s, "totlp") {
		t.Errorf("Table 5 rendering missing fields:\n%s", s)
	}
	// Single-copy methods render "-" for 2lp/clp.
	line := strings.Split(s, "\n")[1]
	if !strings.Contains(line, "-") {
		t.Errorf("direct row should render '-' for pair columns: %q", line)
	}

	s6 := RenderTable6(a.HighLossHours())
	if !strings.Contains(s6, "> 90") || !strings.Contains(s6, "worst hour") {
		t.Errorf("Table 6 rendering missing rows:\n%s", s6)
	}

	c := a.WindowRateCDF(0)
	cs := RenderCDF("fig3 direct", c.Grid(0, 1, 5))
	if !strings.Contains(cs, "# fig3 direct") {
		t.Errorf("CDF rendering missing label:\n%s", cs)
	}
	ov := RenderCDFOverlay("fig3", 0, 1, 5,
		[]string{"direct", "direct rand"},
		[]*CDF{a.WindowRateCDF(0), a.WindowRateCDF(1)})
	if !strings.Contains(ov, "direct rand") || len(strings.Split(ov, "\n")) < 7 {
		t.Errorf("overlay rendering malformed:\n%s", ov)
	}
}

func TestAggregatorString(t *testing.T) {
	a := newTestAgg()
	if !strings.Contains(a.String(), "methods=2") {
		t.Error("String() missing summary")
	}
}

func TestInferredSingle(t *testing.T) {
	a := newTestAgg()
	// Pair method: first copy lost once of 4, first-copy latencies 30/50/40.
	obs := []Observation{
		{Lost: [2]bool{true, false}, Lat: [2]time.Duration{0, 80 * time.Millisecond}},
		{Lost: [2]bool{false, true}, Lat: [2]time.Duration{30 * time.Millisecond, 0}},
		{Lost: [2]bool{false, false}, Lat: [2]time.Duration{50 * time.Millisecond, 90 * time.Millisecond}},
		{Lost: [2]bool{false, false}, Lat: [2]time.Duration{40 * time.Millisecond, 70 * time.Millisecond}},
	}
	for i, o := range obs {
		o.Method, o.Src, o.Dst, o.Copies = 1, 0, 1, 2
		o.Time = int64(i) * int64(time.Second)
		a.Observe(o)
	}
	first := a.InferredSingle(1, 0, "direct*")
	if first.Method != "direct*" {
		t.Errorf("name = %q", first.Method)
	}
	if first.FirstLossPct != 25 || first.TotalLossPct != 25 {
		t.Errorf("inferred 1lp = %v, want 25", first.FirstLossPct)
	}
	if first.MeanLatency != 40*time.Millisecond {
		t.Errorf("inferred latency = %v, want 40ms", first.MeanLatency)
	}
	second := a.InferredSingle(1, 1, "rand*")
	if second.FirstLossPct != 25 {
		t.Errorf("second-copy 1lp = %v, want 25", second.FirstLossPct)
	}
	if second.MeanLatency != 80*time.Millisecond {
		t.Errorf("second-copy latency = %v, want 80ms", second.MeanLatency)
	}
}

func TestDiurnalProfile(t *testing.T) {
	a := newTestAgg()
	// Hour 3: 50% loss; hour 15: clean; other hours unsampled.
	for i := 0; i < 10; i++ {
		a.Observe(Observation{Method: 0, Src: 0, Dst: 1,
			Time:   int64(3*time.Hour) + int64(i)*int64(time.Minute),
			Copies: 1, Lost: [2]bool{i%2 == 0}})
		a.Observe(Observation{Method: 0, Src: 0, Dst: 1,
			Time:   int64(15*time.Hour) + int64(i)*int64(time.Minute),
			Copies: 1, Lat: [2]time.Duration{time.Millisecond}})
	}
	p := a.DiurnalProfile(0)
	if p[3] != 0.5 {
		t.Errorf("hour 3 loss = %v, want 0.5", p[3])
	}
	if p[15] != 0 {
		t.Errorf("hour 15 loss = %v, want 0", p[15])
	}
	if p[7] != 0 {
		t.Errorf("unsampled hour = %v, want 0", p[7])
	}
	// Day 2's hour 3 folds into the same bucket.
	a.Observe(Observation{Method: 0, Src: 0, Dst: 1,
		Time: int64(27 * time.Hour), Copies: 1, Lost: [2]bool{true}})
	if got := a.DiurnalProfile(0)[3]; got <= 0.5 {
		t.Errorf("hour 3 after day-2 loss = %v, want > 0.5", got)
	}
}

func TestCDFQuickProperties(t *testing.T) {
	// Properties against a sorted-reference implementation: monotone
	// FractionAtMost, quantile within sample range, F(max)=1.
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 300 {
			raw = raw[:300]
		}
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			vals = append(vals, v)
		}
		if len(vals) == 0 {
			return true
		}
		c := &CDF{}
		for _, v := range vals {
			c.Add(v)
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		// Reference F(x): count ≤ x.
		ref := func(x float64) float64 {
			n := 0
			for _, v := range sorted {
				if v <= x {
					n++
				}
			}
			return float64(n) / float64(len(sorted))
		}
		for _, x := range []float64{sorted[0] - 1, sorted[0],
			sorted[len(sorted)/2], sorted[len(sorted)-1], sorted[len(sorted)-1] + 1} {
			if c.FractionAtMost(x) != ref(x) {
				return false
			}
		}
		if c.FractionAtMost(c.Max()) != 1 {
			return false
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
			v := c.Quantile(q)
			if v < sorted[0] || v > sorted[len(sorted)-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAggregatorInvariantsQuick(t *testing.T) {
	// Invariant: for any observation stream, totlp ≤ 1lp, totlp ≤ 2lp
	// for pair methods, and clp*1lp ≈ totlp*100 for pure-pair streams.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewAggregator([]string{"pair"}, 4)
		for i := 0; i < 500; i++ {
			src := rng.Intn(4)
			a.Observe(Observation{
				Method: 0,
				Src:    src,
				Dst:    (src + 1 + rng.Intn(3)) % 4,
				Time:   int64(i) * int64(time.Second),
				Copies: 2,
				Lost:   [2]bool{rng.Float64() < 0.3, rng.Float64() < 0.3},
				Lat:    [2]time.Duration{time.Millisecond, 2 * time.Millisecond},
			})
		}
		mt := a.Totals(0)
		if mt.TotalLossPct > mt.FirstLossPct+1e-9 {
			return false
		}
		if mt.TotalLossPct > mt.SecondLossPct+1e-9 {
			return false
		}
		// totlp = 1lp * clp (both as fractions).
		want := mt.FirstLossPct * mt.CondLossPct / 100
		return math.Abs(want-mt.TotalLossPct) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
