package analysis

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// TestAggregatorSnapshotRoundTrip checks the serialization contract: an
// unmarshaled aggregator answers every query identically to the
// original, and re-marshaling yields identical bytes (the property the
// sharded-sweep byte-identity guarantee rests on).
func TestAggregatorSnapshotRoundTrip(t *testing.T) {
	a := feed(mergeStream(30000, 5))
	want := queries(a)

	data, err := a.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := UnmarshalAggregator(data)
	if err != nil {
		t.Fatal(err)
	}
	got := queries(b)
	for k := range want {
		if !reflect.DeepEqual(want[k], got[k]) {
			t.Errorf("query %s differs after round trip", k)
		}
	}
	data2, err := b.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("re-marshaling a round-tripped aggregator changed the bytes")
	}
}

// TestAggregatorSnapshotFlushesFirst: an in-progress window must
// contribute its samples to the snapshot, exactly as Merge would flush
// it.
func TestAggregatorSnapshotFlushesFirst(t *testing.T) {
	a := feed(mergeStream(5000, 2))
	// Don't flush; AppendBinary must.
	data, err := a.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := UnmarshalAggregator(data)
	if err != nil {
		t.Fatal(err)
	}
	for m := range a.Methods() {
		if got, want := b.WindowRateCDF(m).N(), a.WindowRateCDF(m).N(); got != want {
			t.Errorf("method %d: %d window samples after round trip, want %d", m, got, want)
		}
		if b.WindowRateCDF(m).N() == 0 {
			t.Errorf("method %d: no window samples — snapshot did not flush", m)
		}
	}
}

// TestAggregatorSnapshotMergeEquivalence: merging two unmarshaled
// aggregators must equal merging the originals — the merge-from-
// snapshots path of a distributed sweep.
func TestAggregatorSnapshotMergeEquivalence(t *testing.T) {
	obs := mergeStream(40000, 6)
	left, right := feed(obs[:20000]), feed(obs[20000:])
	direct := feed(obs[:20000])
	if err := direct.Merge(feed(obs[20000:])); err != nil {
		t.Fatal(err)
	}

	restore := func(a *Aggregator) *Aggregator {
		data, err := a.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := UnmarshalAggregator(data)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	combined := restore(left)
	if err := combined.Merge(restore(right)); err != nil {
		t.Fatal(err)
	}
	want, got := queries(direct), queries(combined)
	for k := range want {
		if !reflect.DeepEqual(want[k], got[k]) {
			t.Errorf("query %s: merge of snapshots differs from direct merge", k)
		}
	}
}

func TestAggregatorSnapshotRejectsBadInput(t *testing.T) {
	a := feed(mergeStream(2000, 1))
	data, err := a.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := UnmarshalAggregator(nil); err == nil {
		t.Error("accepted empty input")
	}
	if _, err := UnmarshalAggregator(data[:len(data)/2]); err == nil {
		t.Error("accepted truncated input")
	}
	if _, err := UnmarshalAggregator(append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("accepted trailing junk")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 99 // version byte
	if _, err := UnmarshalAggregator(bad); err == nil {
		t.Error("accepted unknown version")
	}
	// A huge claimed sample count must fail cleanly, not allocate wildly.
	huge := append([]byte(nil), data[:10]...) // version + flags + counts header
	if _, err := UnmarshalAggregator(huge); err == nil {
		t.Error("accepted header-only input")
	}
	// A plausible-looking header claiming a giant mesh must be rejected
	// before NewAggregator allocates O(hosts²) state for it.
	w := &binWriter{}
	w.u8(SnapshotCodecVersion)
	w.u8(0)
	w.u32(1)
	w.u32(50000)
	w.str("direct")
	if _, err := UnmarshalAggregator(w.buf); err == nil {
		t.Error("accepted a 50000-host header with no payload")
	}
}

// TestUnmarshalIntoMatchesFresh drains a stream of snapshots through one
// recycled aggregator, as a fleet coordinator does: probe-only →
// workload → resilience → probe-only, then a decode that fails half-way
// (truncated inside the workload section, then one lying about a CDF's
// run count) followed by good ones. After every successful decode the
// recycled aggregator must re-encode to exactly the bytes a fresh
// UnmarshalAggregator re-encodes to — nothing inherited from the
// previous occupant or from the failed attempt — and must merge into a
// probe-only group without the stale workload shape tripping Merge.
func TestUnmarshalIntoMatchesFresh(t *testing.T) {
	probeOnly := func(n int) []byte {
		data, err := feed(mergeStream(n, 3)).AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	withWorkload := func(k, m int) *Aggregator {
		a := feed(mergeStream(4000, 2))
		a.SetWorkloadMeta(k, m, 3)
		for i := 0; i < 50; i++ {
			a.WorkloadFrame(WorkloadBestPath, i%5 != 0, k, k-i%2, time.Duration(30+i)*time.Millisecond)
			a.WorkloadFrame(WorkloadMultiPath, i%9 != 0, k+m, k+m-i%3, time.Duration(25+i)*time.Millisecond)
		}
		a.WorkloadStreamLoss(WorkloadBestPath, 20)
		a.WorkloadStreamLoss(WorkloadMultiPath, 11.5)
		return a
	}
	marshal := func(a *Aggregator) []byte {
		data, err := a.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	workload := marshal(withWorkload(4, 2))
	res := withWorkload(6, 1)
	for i := 0; i < 7; i++ {
		res.ResilienceOutage()
		res.ResilienceProbe(ResilienceBestPath, i%2 == 0)
		res.ResilienceProbe(ResilienceMultiPath, true)
		res.ResilienceOutcome(ResilienceMultiPath, true, time.Duration(i+1)*time.Second)
	}
	resilience := marshal(res)
	if workload[1] != aggSectionWorkload || resilience[1] != aggSectionWorkload|aggSectionResilience {
		t.Fatalf("fixtures encode with section flags %#x and %#x, want %#x and %#x",
			workload[1], resilience[1], aggSectionWorkload, aggSectionWorkload|aggSectionResilience)
	}
	// A lying payload: the workload snapshot with its first CDF run count
	// (the u32 after the first variant's seven 8-byte fields) inflated.
	lying := append([]byte(nil), workload...)
	wlStart := len(probeOnlyPrefix(t, workload))
	lying[wlStart+12+7*8+3] = 0x7f

	steps := []struct {
		name string
		data []byte
		bad  bool
	}{
		{"probe-only", probeOnly(6000), false},
		{"workload", workload, false},
		{"resilience", resilience, false},
		{"probe-only after sections", probeOnly(5000), false},
		{"workload again", workload, false},
		{"truncated inside the workload section", workload[:len(workload)-40], true},
		{"probe-only after a failed decode", probeOnly(7000), false},
		{"lying CDF run count", lying, true},
		{"resilience after a failed decode", resilience, false},
		{"probe-only last", probeOnly(6000), false},
	}
	var scratch *Aggregator
	for _, st := range steps {
		got, err := UnmarshalAggregatorInto(st.data, scratch)
		if st.bad {
			if err == nil {
				t.Fatalf("%s: decode succeeded", st.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if scratch != nil && got != scratch {
			t.Fatalf("%s: same-shape scratch was not reused", st.name)
		}
		scratch = got
		fresh, err := UnmarshalAggregator(st.data)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshal(got), marshal(fresh)) || !bytes.Equal(marshal(got), st.data) {
			t.Errorf("%s: recycled decode re-encodes differently from a fresh one", st.name)
		}
		if (got.Workload() == nil) != (fresh.Workload() == nil) || (got.Resilience() == nil) != (fresh.Resilience() == nil) {
			t.Errorf("%s: recycled decode has workload=%v resilience=%v sections, fresh has %v/%v", st.name,
				got.Workload() != nil, got.Resilience() != nil, fresh.Workload() != nil, fresh.Resilience() != nil)
		}
	}
	// The last occupant is probe-only but the storage held k=6/m=1 and
	// k=4/m=2 shapes before: folding it into a group whose accumulator
	// carries a third shape must not see either.
	acc := withWorkload(3, 3)
	if err := acc.Merge(scratch); err != nil {
		t.Errorf("merging a recycled probe-only decode into a workload group: %v", err)
	}

	// A scratch of another shape is left alone and a fresh aggregator
	// returned.
	other := NewAggregator([]string{"direct"}, 6)
	got, err := UnmarshalAggregatorInto(workload, other)
	if err != nil {
		t.Fatal(err)
	}
	if got == other {
		t.Error("decode reused a scratch built for a different method list")
	}
}

// probeOnlyPrefix returns the leading part of a workload-bearing
// payload that a probe-only payload of the same aggregator would
// consist of, located by re-encoding without the workload section.
func probeOnlyPrefix(t *testing.T, data []byte) []byte {
	t.Helper()
	a, err := UnmarshalAggregator(data)
	if err != nil {
		t.Fatal(err)
	}
	a.wl = nil
	plain, err := a.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain[2:], data[2:len(plain)]) { // past version and section flags
		t.Fatal("workload payload does not extend the probe-only layout")
	}
	return plain
}
