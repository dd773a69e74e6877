package analysis

import (
	"reflect"
	"testing"
)

// marshalV1 serializes an aggregator in the legacy v1 layout — expanded
// window samples instead of run-length pairs — exactly as the pre-v2
// writer did, so the reader's v1 path is exercised against a faithful
// fixture.
func marshalV1(t *testing.T, a *Aggregator) []byte {
	t.Helper()
	a.Flush()
	w := &binWriter{}
	w.u8(1)
	w.u32(uint32(len(a.methods)))
	w.u32(uint32(a.nHosts))
	for _, m := range a.methods {
		w.str(m)
	}
	for m := range a.methods {
		for pi := 0; pi < a.nPaths; pi++ {
			ps := a.stat(m, pi)
			w.i64(ps.probes)
			w.i64(ps.firstSent)
			w.i64(ps.firstLost)
			w.i64(ps.secondSent)
			w.i64(ps.secondLost)
			w.i64(ps.bothLost)
			w.i64(ps.effLost)
			w.f64(ps.latSumNS)
			w.i64(ps.latN)
			w.f64(ps.lat1SumNS)
			w.i64(ps.lat1N)
			w.f64(ps.lat2SumNS)
			w.i64(ps.lat2N)
		}
	}
	for m := range a.methods {
		samples := a.win20Rates[m].Samples()
		w.u32(uint32(len(samples)))
		for _, s := range samples {
			w.f64(s)
		}
	}
	w.u32(uint32(len(Table6Thresholds)))
	for m := range a.methods {
		for _, c := range a.hourCounts[m] {
			w.i64(c)
		}
		w.i64(a.hourPeriods[m])
	}
	w.f64(a.hourMaxRate)
	for m := range a.methods {
		for h := 0; h < 24; h++ {
			w.i64(a.hodSent[m][h])
		}
		for h := 0; h < 24; h++ {
			w.i64(a.hodLost[m][h])
		}
	}
	return w.buf
}

// TestAggregatorSnapshotReadsV1 locks backward compatibility: a payload
// in the retired expanded-sample v1 layout must restore to the same
// queryable state as the current codec, so snapshots written by
// pre-run-length builds (e.g. sweep cells computed on an older worker)
// stay mergeable.
func TestAggregatorSnapshotReadsV1(t *testing.T) {
	a := feed(mergeStream(30000, 5))

	v1 := marshalV1(t, a)
	fromV1, err := UnmarshalAggregator(v1)
	if err != nil {
		t.Fatalf("v1 payload rejected: %v", err)
	}

	v2, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fromV2, err := UnmarshalAggregator(v2)
	if err != nil {
		t.Fatal(err)
	}
	if v2[0] != aggSnapshotVersion {
		t.Fatalf("writer emits version %d, want %d", v2[0], aggSnapshotVersion)
	}
	if len(v2) >= len(v1) && fromV2.WindowRateCDF(0).N() > 2*fromV2.WindowRateCDF(0).Distinct() {
		t.Errorf("v2 payload (%d bytes) not smaller than v1 (%d bytes) despite repeated samples",
			len(v2), len(v1))
	}

	wantQ, gotQ := queries(fromV2), queries(fromV1)
	for k := range wantQ {
		if !reflect.DeepEqual(wantQ[k], gotQ[k]) {
			t.Errorf("query %s differs between v1 and v2 restores", k)
		}
	}

	// A v1 restore must re-marshal into the current version and keep
	// round-tripping byte-stably.
	re, err := fromV1.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if re[0] != aggSnapshotVersion {
		t.Errorf("re-marshaled v1 restore has version %d, want %d", re[0], aggSnapshotVersion)
	}
}
