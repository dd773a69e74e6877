package scenario

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/detmath"
)

func TestCompileDeterministic(t *testing.T) {
	spec, ok := Preset("storm")
	if !ok {
		t.Fatal("storm preset missing")
	}
	span := 30 * time.Minute
	a, err := Compile(spec, 12, span, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(spec, 12, span, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same inputs compiled differently:\n%v\nvs\n%v", a, b)
	}
	c, err := Compile(spec, 12, span, 43, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds compiled identically")
	}
	if len(a) != 4 {
		t.Fatalf("storm over 12 hosts expanded to %d actions, want 4", len(a))
	}
	seen := map[int]bool{}
	for _, act := range a {
		if act.Target != Access || act.Kind != Outage {
			t.Fatalf("storm action %+v is not an access outage", act)
		}
		if seen[act.Host] {
			t.Fatalf("storm hit host %d twice", act.Host)
		}
		seen[act.Host] = true
		if act.Duration < 3*time.Minute || act.Duration > 8*time.Minute {
			t.Fatalf("storm downtime %v outside [3m, 8m]", act.Duration)
		}
	}
}

func TestCompileSortedAndReusesStorage(t *testing.T) {
	spec := &Spec{
		Name: "mixed",
		Outages: []OutageEvent{
			{Start: 0.8, Duration: time.Minute, Target: Access, Host: 3},
			{Start: 0.1, Duration: time.Minute, Target: Backbone, Host: 5, Peer: 2},
		},
		Flaps: []Flap{
			{Start: 0.3, End: 0.5, Period: 2 * time.Minute, Down: 20 * time.Second,
				Target: Backbone, Host: 1, Peer: 4},
		},
	}
	acts, err := Compile(spec, 8, time.Hour, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(acts); i++ {
		if acts[i].At < acts[i-1].At {
			t.Fatalf("actions out of order at %d: %v after %v", i, acts[i].At, acts[i-1].At)
		}
	}
	// Backbone endpoints are canonicalized low-high.
	if acts[0].Target != Backbone || acts[0].Host != 2 || acts[0].Peer != 5 {
		t.Fatalf("first action %+v, want backbone 2-5", acts[0])
	}
	// A second compile into the returned slice must not allocate a new
	// backing array.
	p0 := &acts[:1][0]
	again, err := Compile(spec, 8, time.Hour, 7, acts)
	if err != nil {
		t.Fatal(err)
	}
	if &again[:1][0] != p0 {
		t.Fatal("Compile with a large-enough dst reallocated")
	}
}

func TestCompileReducesHostsModulo(t *testing.T) {
	spec := &Spec{
		Name: "wrap",
		Outages: []OutageEvent{
			{Start: 0.2, Duration: time.Minute, Target: Access, Host: 10},
			// Endpoints that collide after reduction are dropped.
			{Start: 0.3, Duration: time.Minute, Target: Backbone, Host: 1, Peer: 4},
		},
	}
	acts, err := Compile(spec, 3, time.Hour, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(acts) != 1 {
		t.Fatalf("got %d actions, want 1 (degenerate backbone dropped)", len(acts))
	}
	if acts[0].Host != 1 {
		t.Fatalf("host 10 mod 3 = %d, want 1", acts[0].Host)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{Outages: []OutageEvent{{Start: 1.2, Duration: time.Minute}}},
		{Outages: []OutageEvent{{Start: 0.5}}},
		{Storms: []Storm{{Start: 0.5, Count: 0, MinDown: time.Minute, MaxDown: time.Minute}}},
		{Storms: []Storm{{Start: 0.5, Count: 2, MinDown: 2 * time.Minute, MaxDown: time.Minute}}},
		{Flaps: []Flap{{Start: 0.5, End: 0.4, Period: time.Minute, Down: time.Second}}},
		{Flaps: []Flap{{Start: 0.1, End: 0.5, Period: time.Minute, Down: 2 * time.Minute}}},
		{Windows: []Window{{Start: 0.5, Duration: 0}}},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("spec %d validated, want error", i)
		}
	}
	for _, name := range Names() {
		if err := MustPreset(name).Validate(); err != nil {
			t.Errorf("preset %s: %v", name, err)
		}
	}
}

func TestPresetsExpandOnSmallCampaigns(t *testing.T) {
	// Presets must produce at least one in-span action even on the
	// short campaigns tests use (days 0.02 ≈ 29 virtual minutes).
	span := time.Duration(0.02 * 24 * float64(time.Hour))
	for _, name := range Names() {
		acts, err := Compile(MustPreset(name), 12, span, 9, nil)
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		in := 0
		for _, a := range acts {
			if a.At < span {
				in++
			}
		}
		if in == 0 {
			t.Errorf("preset %s compiled no in-span actions over %v", name, span)
		}
	}
}

// TestRNGKnownAnswers pins the expansion stream, recorded before its
// primitives moved to package detmath: every compiled action list is
// drawn from these bits.
func TestRNGKnownAnswers(t *testing.T) {
	r := &rng{s: 7}
	got := [4]uint64{r.next(), r.next(), r.next(), math.Float64bits(detmath.Unit(r.next()))}
	want := [4]uint64{0x63cbe1e459320dd7, 0x044c3cd7f43c661c, 0xe6984080bab12a02, 0x3fe2a75d6e0ce7c5}
	if got != want {
		t.Errorf("rng draws = %#x, want %#x", got, want)
	}
}
