package route

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

// TestTacticValid pins Table 4's four tactic codes: a trace record's
// tactic byte is one of these values, and nothing else is valid.
func TestTacticValid(t *testing.T) {
	names := []string{"direct", "rand", "lat", "loss"}
	for i, name := range names {
		tac := Tactic(i)
		if !tac.Valid() || tac.String() != name {
			t.Errorf("Tactic(%d) = %q valid=%v, want %q valid", i, tac, tac.Valid(), name)
		}
	}
	for _, bad := range []Tactic{4, 200, 255} {
		if bad.Valid() {
			t.Errorf("Tactic(%d) valid", bad)
		}
	}
}

func TestMethodValidation(t *testing.T) {
	all := append(RON2003Methods(), RONwideMethods()...)
	all = append(all, RONnarrowMethods()...)
	for _, m := range all {
		if err := m.Validate(); err != nil {
			t.Errorf("canonical method %q invalid: %v", m.Name, err)
		}
	}
	bad := []Method{
		{Name: "none", Tactics: nil},
		{Name: "three", Tactics: []Tactic{Direct, Direct, Direct}},
		{Name: "badtactic", Tactics: []Tactic{Tactic(9)}},
		{Name: "negative gap", Tactics: []Tactic{Direct, Direct}, Gap: -time.Millisecond},
		{Name: "gap single", Tactics: []Tactic{Direct}, Gap: time.Millisecond},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("method %q should be invalid", m.Name)
		}
	}
}

func TestMethodSetsMatchPaper(t *testing.T) {
	// RON2003: six probe sets (§4: "six sets of probes").
	if got := len(RON2003Methods()); got != 6 {
		t.Errorf("RON2003 sets = %d, want 6", got)
	}
	// RONwide: Table 7 has twelve rows.
	if got := len(RONwideMethods()); got != 12 {
		t.Errorf("RONwide methods = %d, want 12", got)
	}
	// RONnarrow: "the three most promising methods".
	if got := len(RONnarrowMethods()); got != 3 {
		t.Errorf("RONnarrow methods = %d, want 3", got)
	}
	// dd methods carry the paper's gaps.
	if MethodDD10.Gap != 10*time.Millisecond || MethodDD20.Gap != 20*time.Millisecond {
		t.Error("dd gaps changed")
	}
	// lat loss sends lat first (Table 5 infers lat* from first packets).
	if MethodLatLoss.Tactics[0] != Lat || MethodLatLoss.Tactics[1] != Loss {
		t.Error("lat loss copy order changed")
	}
}

func TestLossWindowBasics(t *testing.T) {
	w := newOneLink(4)
	if w.Rate() != 0 || w.filled() != 0 {
		t.Error("empty window should report 0")
	}
	w.Record(true)
	w.Record(false)
	if w.Rate() != 0.5 {
		t.Errorf("rate = %v, want 0.5", w.Rate())
	}
	w.Record(false)
	w.Record(false)
	if w.Rate() != 0.25 {
		t.Errorf("rate = %v, want 0.25", w.Rate())
	}
	// Fifth sample evicts the initial loss.
	w.Record(false)
	if w.Rate() != 0 {
		t.Errorf("rate after eviction = %v, want 0", w.Rate())
	}
	if w.filled() != 4 {
		t.Errorf("samples = %d, want 4", w.filled())
	}
	w.Reset()
	if w.Rate() != 0 || w.filled() != 0 {
		t.Error("reset did not clear window")
	}
}

func TestLossWindowMatchesNaive(t *testing.T) {
	// Property: the ring buffer agrees with a naive sliding window.
	f := func(seed uint64) bool {
		w := newOneLink(100)
		var hist []bool
		s := seed
		for i := 0; i < 500; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			lost := s>>62 == 0 // ~25% loss
			w.Record(lost)
			hist = append(hist, lost)
			lo := 0
			if len(hist) > 100 {
				lo = len(hist) - 100
			}
			var n, l int
			for _, v := range hist[lo:] {
				n++
				if v {
					l++
				}
			}
			if math.Abs(w.Rate()-float64(l)/float64(n)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLossWindowDefaultSize(t *testing.T) {
	w := newOneLink(0)
	for i := 0; i < DefaultLossWindow*2; i++ {
		w.Record(i < DefaultLossWindow) // first 100 lost, next 100 ok
	}
	if w.filled() != DefaultLossWindow {
		t.Errorf("samples = %d, want %d", w.filled(), DefaultLossWindow)
	}
	if w.Rate() != 0 {
		t.Errorf("rate = %v, want 0 after window turned over", w.Rate())
	}
}

func TestLatencyEWMA(t *testing.T) {
	e := &latencyEWMA{alpha: 0.5}
	if e.valid || e.latency() != 0 {
		t.Error("fresh EWMA should be invalid/zero")
	}
	e.record(100 * time.Millisecond)
	if e.latency() != 100*time.Millisecond {
		t.Errorf("first sample = %v, want 100ms", e.latency())
	}
	e.record(200 * time.Millisecond)
	if e.latency() != 150*time.Millisecond {
		t.Errorf("EWMA = %v, want 150ms", e.latency())
	}
	e.reset()
	if e.valid {
		t.Error("reset did not invalidate")
	}
}

func TestLinkEstimateDeadDetection(t *testing.T) {
	var le LinkEstimate
	for i := 0; i < DefaultDeadThreshold-1; i++ {
		le.Record(true, 0, DefaultLossWindow, nil)
	}
	if le.Dead(DefaultDeadThreshold) {
		t.Error("dead before threshold")
	}
	le.Record(true, 0, DefaultLossWindow, nil)
	if !le.Dead(DefaultDeadThreshold) {
		t.Error("not dead at threshold")
	}
	le.Record(false, 10*time.Millisecond, DefaultLossWindow, nil)
	if le.Dead(DefaultDeadThreshold) {
		t.Error("a delivered probe must revive the link")
	}
}

func TestLinkEstimateFallbackLatency(t *testing.T) {
	var le LinkEstimate
	if got := le.LatencyEstimate(time.Second); got != time.Second {
		t.Errorf("fallback = %v, want 1s", got)
	}
	le.Record(false, 20*time.Millisecond, DefaultLossWindow, nil)
	if got := le.LatencyEstimate(time.Second); got != 20*time.Millisecond {
		t.Errorf("estimate = %v, want 20ms", got)
	}
}

// feed populates a 4-node selector: link (0,1) lossy, (0,2) and (2,1)
// clean and fast, direct (0,1) slow.
func feedSelector() *Selector {
	s := NewSelectorWindow(4, 0)
	for i := 0; i < 100; i++ {
		s.Record(0, 1, i%2 == 0, 80*time.Millisecond) // 50% loss, slow
		s.Record(0, 2, false, 10*time.Millisecond)
		s.Record(2, 1, false, 10*time.Millisecond)
		s.Record(0, 3, false, 30*time.Millisecond)
		s.Record(3, 1, false, 40*time.Millisecond)
	}
	return s
}

func TestBestLossPrefersCleanIndirect(t *testing.T) {
	s := feedSelector()
	c := s.BestLoss(0, 1)
	if c.Via != 2 {
		t.Fatalf("BestLoss chose %v, want via 2", c)
	}
	if c.Loss != 0 {
		t.Errorf("estimated loss = %v, want 0", c.Loss)
	}
	if c.Latency != 20*time.Millisecond {
		t.Errorf("estimated latency = %v, want 20ms", c.Latency)
	}
}

func TestBestLatPrefersFastIndirect(t *testing.T) {
	s := feedSelector()
	c := s.BestLat(0, 1)
	if c.Via != 2 {
		t.Fatalf("BestLat chose %v, want via 2 (20ms total)", c)
	}
}

func TestBestLossTieBreaksToDirect(t *testing.T) {
	// All links clean: the direct path must win on both metrics when it
	// is also fastest.
	s := NewSelectorWindow(3, 0)
	for i := 0; i < 50; i++ {
		s.Record(0, 1, false, 10*time.Millisecond)
		s.Record(0, 2, false, 10*time.Millisecond)
		s.Record(2, 1, false, 10*time.Millisecond)
	}
	if c := s.BestLoss(0, 1); !c.IsDirect() {
		t.Errorf("BestLoss = %v, want direct on tie", c)
	}
	if c := s.BestLat(0, 1); !c.IsDirect() {
		t.Errorf("BestLat = %v, want direct", c)
	}
}

func TestBestLatAvoidsDeadLinks(t *testing.T) {
	s := feedSelector()
	// Kill the 0→2 link with consecutive losses.
	for i := 0; i < DefaultDeadThreshold; i++ {
		s.Record(0, 2, true, 0)
	}
	c := s.BestLat(0, 1)
	if c.Via == 2 {
		t.Fatalf("BestLat chose a path through a dead link")
	}
	// Next best live indirect is via 3 (70ms) vs direct 80ms.
	if c.Via != 3 {
		t.Errorf("BestLat = %v, want via 3", c)
	}
}

func TestBestLatFallsBackToDirectWhenAllDead(t *testing.T) {
	s := NewSelectorWindow(3, 0)
	for i := 0; i < DefaultDeadThreshold; i++ {
		s.Record(0, 1, true, 0)
		s.Record(0, 2, true, 0)
		s.Record(2, 1, true, 0)
	}
	c := s.BestLat(0, 1)
	if !c.IsDirect() {
		t.Errorf("BestLat with all links dead = %v, want direct fallback", c)
	}
}

func TestUnmeasuredLinksNotAttractive(t *testing.T) {
	// Links with zero samples report loss 0, but the latency fallback
	// must stop them from beating a measured 10ms direct path.
	s := NewSelectorWindow(4, 0)
	for i := 0; i < 50; i++ {
		s.Record(0, 1, false, 10*time.Millisecond)
	}
	if c := s.BestLat(0, 1); !c.IsDirect() {
		t.Errorf("BestLat = %v, want direct (unmeasured paths penalized)", c)
	}
}

func TestSnapshotConsistent(t *testing.T) {
	s := feedSelector()
	var tab Tables
	s.SnapshotInto(&tab)
	if got := tab.LossVia(0, 1); got != s.BestLoss(0, 1).Via {
		t.Errorf("snapshot loss via = %d, want %d", got, s.BestLoss(0, 1).Via)
	}
	if got := tab.LatVia(0, 1); got != s.BestLat(0, 1).Via {
		t.Errorf("snapshot lat via = %d, want %d", got, s.BestLat(0, 1).Via)
	}
	if tab.LossVia(2, 2) != -1 || tab.LatVia(1, 1) != -1 {
		t.Error("diagonal must be -1")
	}
	// A second SnapshotInto into the same tables must not allocate.
	if allocs := testing.AllocsPerRun(10, func() { s.SnapshotInto(&tab) }); allocs != 0 {
		t.Errorf("SnapshotInto allocated %.0f times per run, want 0", allocs)
	}
}

func TestChoiceString(t *testing.T) {
	if (Choice{Via: -1}).String() != "direct" || (Choice{Via: 7}).String() != "via 7" {
		t.Error("Choice.String format changed")
	}
}

func TestSelectorPanicsOnTinyMesh(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSelectorWindow(1, 0) did not panic")
		}
	}()
	NewSelectorWindow(1, 0)
}

func TestPathLossComposition(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Abs(math.Mod(a, 1))
		b = math.Abs(math.Mod(b, 1))
		p := pathLoss(a, b)
		return p >= a-1e-12 && p >= b-1e-12 && p <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if pathLoss(0, 0) != 0 {
		t.Error("pathLoss(0,0) != 0")
	}
	if pathLoss(1, 0) != 1 {
		t.Error("pathLoss(1,0) != 1")
	}
}

// TestLatencyOutsideBoundRefused: Record refuses a delivered probe's
// latency, and setFallbackLatency a fallback, outside [0, maxLatency),
// the range the latency scans' dead-link sentinel relies on. Just inside
// it, two live legs still undercut both a dead direct path and a path
// over a dead leg, as BestLat has it.
func TestLatencyOutsideBoundRefused(t *testing.T) {
	sel := NewSelectorWindow(4, 0)
	refused := func(label string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s was accepted", label)
			}
		}()
		f()
	}
	for _, d := range []time.Duration{maxLatency, maxLatency + 1, latDead, math.MaxInt64, -1} {
		refused(fmt.Sprintf("probe latency %v", d), func() { sel.Record(0, 1, false, d) })
		refused(fmt.Sprintf("fallback latency %v", d), func() { sel.setFallbackLatency(d) })
	}
	if sel.link(0, 1).LossRate(sel.window) != 0 || sel.link(0, 1).LatencyEstimate(0) != 0 {
		t.Fatal("a refused probe changed the link's estimate")
	}
	sel.Record(0, 1, true, latDead) // a lost probe carries no latency

	const top = maxLatency - 1
	sel.Reset(0)
	sel.setFallbackLatency(top)
	for i := 0; i < DefaultDeadThreshold; i++ {
		sel.Record(0, 1, true, 0)
		sel.Record(3, 1, true, 0)
	}
	sel.Record(0, 2, false, top)
	sel.Record(2, 1, false, top)
	sel.Record(0, 3, false, time.Millisecond)
	sel.Refresh()
	if got := sel.BestLat(0, 1); got.Via != 2 || got.Latency != 2*top {
		t.Fatalf("BestLat(0,1) = %+v, want via 2 at %v", got, 2*top)
	}
	if got := sel.Tables().LatVia(0, 1); got != 2 {
		t.Fatalf("LatVia(0,1) = %d, want 2", got)
	}
}
