package scenario

import (
	"slices"
	"testing"
	"time"
)

// fuzzSpec decodes fuzz input into Compile's arguments: a mesh size
// (down to the sizes below 2 that Compile refuses), a span (down to
// non-positive ones), a seed, and a Spec of up to three each of
// outages, storms, flaps and windows whose fields range over valid and
// invalid values alike. Missing bytes read as zero. Flap periods are at
// least 10 s and spans at most ~4 h, so no expansion exceeds a few
// thousand actions.
func fuzzSpec(data []byte) (spec *Spec, hosts int, span time.Duration, seed uint64) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	frac := func() float64 { return float64(next()-16) / 200 }
	dur := func() time.Duration { return time.Duration(next()-16) * 10 * time.Second }
	host := func() int { return next() - 128 }
	target := func() Target { return Target(next() % 2) }

	hosts = next()%40 - 1
	span = time.Duration(next()-8) * time.Minute
	seed = uint64(next())<<8 | uint64(next())
	n := next()
	spec = &Spec{Name: "fuzz"}
	for i := 0; i < n&3; i++ {
		spec.Outages = append(spec.Outages, OutageEvent{Start: frac(), Duration: dur(),
			Target: target(), Host: host(), Peer: host()})
	}
	for i := 0; i < n>>2&3; i++ {
		spec.Storms = append(spec.Storms, Storm{Start: frac(), Spread: dur(),
			Count: next()%8 - 1, MinDown: dur(), MaxDown: dur()})
	}
	for i := 0; i < n>>4&3; i++ {
		spec.Flaps = append(spec.Flaps, Flap{Start: frac(), End: frac(), Period: dur(), Down: dur(),
			Target: target(), Host: host(), Peer: host()})
	}
	for i := 0; i < n>>6&3; i++ {
		spec.Windows = append(spec.Windows, Window{Start: frac(), Duration: dur(), Host: host(),
			Drain: dur(), DrainSeverity: frac()})
	}
	return spec, hosts, span, seed
}

// FuzzScenarioCompile: Compile never panics and errors exactly when the
// mesh size or span guard or Validate refuses. On success every action
// lies in the mesh, backbone endpoints are ordered Host < Peer, actions
// are sorted by onset with ties broken by target coordinates, and a
// reused dst with stale contents compiles to the same actions as a
// fresh one.
func FuzzScenarioCompile(f *testing.F) {
	f.Add([]byte{})
	// 12 hosts, 30 min: one outage, one storm, one flap, one window.
	f.Add([]byte{13, 38, 0, 42, 0x55,
		66, 22, 1, 128, 133,
		96, 28, 5, 34, 64,
		56, 136, 28, 21, 1, 129, 130,
		116, 22, 131, 22, 76})
	// Out-of-range fractions, a storm of -1, a flap whose Down exceeds
	// its Period.
	f.Add([]byte{3, 38, 9, 9, 0x15, 255, 0, 0, 0, 0, 40, 0, 0, 0, 0, 17, 60, 30, 40, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, hosts, span, seed := fuzzSpec(data)
		acts, err := Compile(spec, hosts, span, seed, nil)
		wantErr := hosts < 2 || span <= 0 || spec.Validate() != nil
		if (err != nil) != wantErr {
			t.Fatalf("Compile(%+v, hosts %d, span %v) error %v; guards and Validate expect an error: %v",
				spec, hosts, span, err, wantErr)
		}
		if err != nil {
			return
		}
		for i, a := range acts {
			if a.Host < 0 || a.Host >= hosts || (a.Target == Backbone && (a.Peer <= a.Host || a.Peer >= hosts)) {
				t.Fatalf("action %d %+v outside a %d-host mesh or not ordered Host < Peer", i, a, hosts)
			}
			if i == 0 {
				continue
			}
			p := acts[i-1]
			if a.At < p.At || a.At == p.At && (a.Target < p.Target || a.Target == p.Target &&
				(a.Host < p.Host || a.Host == p.Host && a.Peer < p.Peer)) {
				t.Fatalf("action %d %+v sorts before action %d %+v", i, a, i-1, p)
			}
		}
		stale := make([]Action, len(acts)+2)
		for i := range stale {
			stale[i] = Action{At: time.Hour, Host: -1, Peer: -1, Kind: Congestion, Severity: 1}
		}
		again, err := Compile(spec, hosts, span, seed, stale)
		if err != nil || !slices.Equal(acts, again) {
			t.Fatalf("reused dst compiled to %+v (%v), fresh dst to %+v", again, err, acts)
		}
	})
}
