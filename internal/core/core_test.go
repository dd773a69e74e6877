package core

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/analysis"
	"repro/internal/netsim"
	"repro/internal/route"
)

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig(RON2003, 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"days", func(c *Config) { c.Days = 0 }},
		{"probe interval", func(c *Config) { c.ProbeInterval = 0 }},
		{"table refresh", func(c *Config) { c.TableRefresh = -time.Second }},
		{"gap min", func(c *Config) { c.MeasureGapMin = 0 }},
		{"gap order", func(c *Config) { c.MeasureGapMax = c.MeasureGapMin / 2 }},
		{"loss window past the cap", func(c *Config) { c.LossWindow = route.MaxLossWindow + 1 }},
		{"loss window the size of memory", func(c *Config) { c.LossWindow = 2_000_000_000 }},
		{"bad method", func(c *Config) {
			c.Methods = []route.Method{{Name: "broken"}}
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			c := DefaultConfig(RON2003, 1)
			m.mut(&c)
			if err := c.Validate(); err == nil {
				t.Error("mutated config accepted")
			}
		})
	}
	// Zero and negative windows mean the default; the cap itself is held.
	for _, window := range []int{-1, 0, 1, route.MaxLossWindow} {
		c := DefaultConfig(RON2003, 1)
		c.LossWindow = window
		if err := c.Validate(); err != nil {
			t.Errorf("LossWindow = %d rejected: %v", window, err)
		}
	}
}

func TestDatasetPresets(t *testing.T) {
	cases := []struct {
		d         Dataset
		hosts     int
		methods   int
		roundTrip bool
	}{
		{RON2003, 30, 6, false},
		{RONwide, 17, 12, true},
		{RONnarrow, 17, 3, false},
	}
	for _, c := range cases {
		cfg := DefaultConfig(c.d, 1)
		if got := cfg.testbed().N(); got != c.hosts {
			t.Errorf("%v hosts = %d, want %d", c.d, got, c.hosts)
		}
		if got := len(cfg.methods()); got != c.methods {
			t.Errorf("%v methods = %d, want %d", c.d, got, c.methods)
		}
		if cfg.roundTrip() != c.roundTrip {
			t.Errorf("%v roundTrip = %v", c.d, cfg.roundTrip())
		}
		if c.d.String() == "" {
			t.Error("dataset name empty")
		}
	}
	if DefaultConfig(RON2003, 0).Days != 2 {
		t.Error("days default changed")
	}
}

func TestEventQueueOrdering(t *testing.T) {
	var q eventQueue
	times := []int64{50, 10, 30, 10, 90, 0, 30}
	for _, tm := range times {
		q.push(event{t: netsim.Time(tm)})
	}
	var got []int64
	var lastSeq uint64
	var lastT int64 = -1
	for q.len() > 0 {
		e := q.pop()
		got = append(got, int64(e.t))
		if int64(e.t) == lastT && e.seq < lastSeq {
			t.Error("equal-time events popped out of insertion order")
		}
		lastT, lastSeq = int64(e.t), e.seq
	}
	want := []int64{0, 10, 10, 30, 30, 50, 90}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestCampaignDeterminism(t *testing.T) {
	cfg := DefaultConfig(RONnarrow, 0.05)
	cfg.Seed = 99
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.Table5Rows(), b.Table5Rows()
	if len(ra) != len(rb) {
		t.Fatal("row counts differ")
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Errorf("row %d differs: %+v vs %+v", i, ra[i], rb[i])
		}
	}
	if a.MeasureProbes != b.MeasureProbes || a.RONProbes != b.RONProbes {
		t.Error("probe counts differ across identical runs")
	}
	// A different seed must differ.
	cfg.Seed = 100
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Table5Rows()[0] == ra[0] && c.RouteChanges == a.RouteChanges {
		t.Error("different seeds produced identical campaigns")
	}
}

func TestCampaignProbeVolume(t *testing.T) {
	cfg := DefaultConfig(RONnarrow, 0.05) // 72 virtual minutes
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// §4.1: each node probes every ~0.9s on average → 17 nodes over
	// 4320s ≈ 81k measurement probes.
	wantMeasure := int64(17.0 * 4320 / 0.9)
	if res.MeasureProbes < wantMeasure*8/10 || res.MeasureProbes > wantMeasure*12/10 {
		t.Errorf("measurement probes = %d, want ≈%d", res.MeasureProbes, wantMeasure)
	}
	// §3.1: every ordered pair probes every 15s → 17*16*4320/15 ≈ 78k
	// regular probes plus loss-triggered follow-ups.
	wantRON := int64(17 * 16 * 4320 / 15)
	if res.RONProbes < wantRON || res.RONProbes > wantRON*13/10 {
		t.Errorf("routing probes = %d, want within [%d, %d]",
			res.RONProbes, wantRON, wantRON*13/10)
	}
}

func TestCampaignObservationsCoverMethodsAndPaths(t *testing.T) {
	cfg := DefaultConfig(RONnarrow, 0.05)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for m, name := range res.Agg.Methods() {
		// Every path with an observation is one PathLossCDF sample.
		if covered := res.Agg.PathLossCDF(m, 1).N(); covered < res.Testbed.Paths()*9/10 {
			t.Errorf("method %q covered %d paths, want ≈%d",
				name, covered, res.Testbed.Paths())
		}
	}
}

func TestTable5RowOrder(t *testing.T) {
	cfg := DefaultConfig(RONnarrow, 0.02)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Table5Rows()
	names := make([]string, len(rows))
	for i, r := range rows {
		names[i] = r.Method
	}
	want := []string{"direct*", "lat*", "loss", "direct rand", "lat loss"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("RONnarrow rows = %v, want %v", names, want)
	}
}

func TestRONwideReportUsesRTT(t *testing.T) {
	cfg := DefaultConfig(RONwide, 0.02)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencyLabel() != "RTT" {
		t.Errorf("latency label = %q, want RTT", res.LatencyLabel())
	}
	rows := res.Table5Rows()
	if len(rows) != 12 {
		t.Fatalf("Table 7 rows = %d, want 12", len(rows))
	}
	// RTTs must be roughly double the one-way latencies of a comparable
	// one-way campaign; sanity: direct RTT over this testbed should
	// exceed 40ms on average.
	var direct *analysis.MethodTotals
	for i := range rows {
		if rows[i].Method == "direct" {
			direct = &rows[i]
		}
	}
	if direct == nil {
		t.Fatal("no direct row")
	}
	if direct.MeanLatency < 40*time.Millisecond {
		t.Errorf("direct RTT = %v, want > 40ms", direct.MeanLatency)
	}
	if !strings.Contains(res.Report(), "Table 7") {
		t.Error("RONwide report should be labeled Table 7")
	}
}

func TestFigureAccessors(t *testing.T) {
	cfg := DefaultConfig(RON2003, 0.02)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Figure2(1).N() == 0 {
		t.Error("Figure 2 CDF empty")
	}
	f3 := res.Figure3()
	if len(f3) != len(res.Methods) {
		t.Errorf("Figure 3 series = %d, want %d", len(f3), len(res.Methods))
	}
	names, cdfs := res.Figure4()
	if len(names) != 4 || len(cdfs) != 4 {
		t.Errorf("Figure 4 should cover the four pair methods, got %v", names)
	}
	f5 := res.Figure5()
	if len(f5) != len(res.Methods) {
		t.Errorf("Figure 5 series = %d, want %d", len(f5), len(res.Methods))
	}
	rep := res.Report()
	for _, want := range []string{"Table 5", "Table 6", "RON2003", "870 paths"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestCampaignHysteresisReducesRouteChanges(t *testing.T) {
	base := DefaultConfig(RONnarrow, 0.05)
	base.Seed = 5
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	damped := base
	damped.Hysteresis = 0.5
	stable, err := Run(damped)
	if err != nil {
		t.Fatal(err)
	}
	if plain.RouteChanges == 0 {
		t.Skip("no route dynamics in this window")
	}
	if stable.RouteChanges >= plain.RouteChanges {
		t.Errorf("hysteresis did not damp route changes: %d vs %d",
			stable.RouteChanges, plain.RouteChanges)
	}
	// The damped campaign must still route (tables populated, losses
	// broadly comparable).
	li := stable.Agg.MethodIndex("loss")
	lp := stable.Agg.Totals(li).TotalLossPct
	pp := plain.Agg.Totals(li).TotalLossPct
	if lp > pp*3+0.5 {
		t.Errorf("hysteresis wrecked loss-optimized routing: %.3f vs %.3f", lp, pp)
	}
}

func TestCampaignDiurnalVariation(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a full virtual day")
	}
	cfg := DefaultConfig(RONnarrow, 1)
	cfg.Seed = 8
	// Strip episodes, outages, and global weather so the diurnal
	// congestion modulation is the only time-of-day signal; raise the
	// base burst rate for statistical power.
	prof := netsim.DefaultProfile()
	prof.LossScale = 10
	prof.Global = netsim.GlobalParams{}
	strip := func(cp netsim.ComponentParams) netsim.ComponentParams {
		cp.MeanUp = 1000000 * time.Hour
		cp.EpisodeEvery = 0
		cp.LatEpisodeEvery = 0
		return cp
	}
	for class, cp := range prof.AccessParams {
		prof.AccessParams[class] = strip(cp)
	}
	prof.BackboneBase = strip(prof.BackboneBase)
	prof.BackboneIntl = strip(prof.BackboneIntl)
	prof.BackboneFar = strip(prof.BackboneFar)
	cfg.Profile = prof
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Agg.MethodIndex("direct rand")
	hod := res.Agg.DiurnalProfile(m)
	// §4.2: quiescent hours vs busy hours. The diurnal modulator peaks
	// mid-afternoon; overnight hours must be materially quieter than
	// the busiest hours.
	night := (hod[2] + hod[3] + hod[4] + hod[5]) / 4
	day := (hod[13] + hod[14] + hod[15] + hod[16]) / 4
	if !(day > night) {
		t.Errorf("afternoon loss %.5f not above overnight %.5f", day, night)
	}
}

func TestEventQueueQuickSorted(t *testing.T) {
	// Property: popping drains events in nondecreasing time order with
	// insertion order breaking ties, for any push sequence.
	f := func(times []uint32) bool {
		if len(times) > 200 {
			times = times[:200]
		}
		var q eventQueue
		type tagged struct {
			t   netsim.Time
			seq int
		}
		for i, tm := range times {
			q.push(event{t: netsim.Time(tm % 1000), a: int32(i)})
		}
		var prev tagged
		first := true
		count := 0
		for q.len() > 0 {
			e := q.pop()
			count++
			cur := tagged{e.t, int(e.a)}
			if !first {
				if cur.t < prev.t {
					return false
				}
				if cur.t == prev.t && cur.seq < prev.seq {
					return false
				}
			}
			prev, first = cur, false
		}
		return count == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
