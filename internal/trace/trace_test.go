package trace

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/route"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Kind: KindSend, Node: 0, Peer: 5, ProbeID: 111, Time: 1000,
			Method: 2, Tactic: route.Direct, CopyIndex: 0, Copies: 2, Via: NoNode},
		{Kind: KindSend, Node: 0, Peer: 5, ProbeID: 111, Time: 1001,
			Method: 2, Tactic: route.Rand, CopyIndex: 1, Copies: 2, Via: 7},
		{Kind: KindRecv, Node: 5, Peer: 0, ProbeID: 111, Time: 54_000_000,
			Method: 2, Tactic: route.Direct, CopyIndex: 0, Copies: 2, Via: NoNode},
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 3 {
		t.Errorf("count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

// TestTraceFormatUnchanged pins the RONTRCE1 byte layout: a fixed stream
// of sends and receives — every tactic, direct (NoNode) and relayed
// copies, node ids at both ends of the range, a negative timestamp —
// encodes to the digest the writer produced when a record's node and
// tactic fields were the overlay wire package's types.
func TestTraceFormatUnchanged(t *testing.T) {
	const want = "75c98d38308b966e6b051e16818f7a23360457f1ddbde7e1b8475d641b9284e9"
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		via := NoNode
		if i%2 == 1 {
			via = uint16(7 + i)
		}
		send := Record{Kind: KindSend, Node: uint16(i), Peer: uint16(0xFFFE - i),
			ProbeID: 0x0123456789ABCDEF ^ uint64(i)<<40, Time: int64(i)*1_000_000_007 - 3,
			Method: uint8(i * 60), Tactic: route.Tactic(i), CopyIndex: uint8(i % 2), Copies: 2, Via: via}
		recv := send
		recv.Kind, recv.Node, recv.Peer = KindRecv, send.Peer, send.Node
		recv.Time += 53_000_017
		if err := w.Append(send); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(recv); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Errorf("trace stream of %d bytes hashes to %s, want %s", buf.Len(), got, want)
	}
}

func TestReadAllRejectsGarbage(t *testing.T) {
	if _, err := ReadAll(bytes.NewReader([]byte("NOTATRACE___"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadAll(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
	// Truncated record after a valid header.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Append(Record{Kind: KindSend, Copies: 1})
	w.Flush()
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadAll(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated record accepted")
	}
	// Corrupt kind byte.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[len(fileMagic)] = 99
	if _, err := ReadAll(bytes.NewReader(bad)); err == nil {
		t.Error("bad kind accepted")
	}
	// A tactic byte outside Table 4's four codes.
	bad = append([]byte(nil), buf.Bytes()...)
	bad[len(fileMagic)+22] = 4
	if _, err := ReadAll(bytes.NewReader(bad)); err == nil {
		t.Error("bad tactic accepted")
	}
	// A pad byte the writer never sets.
	bad = append([]byte(nil), buf.Bytes()...)
	bad[len(fileMagic)+recordLen-1] = 1
	if _, err := ReadAll(bytes.NewReader(bad)); err == nil {
		t.Error("nonzero pad accepted")
	}
}

func TestMergeSortsByTime(t *testing.T) {
	a := []Record{{Kind: KindSend, Time: 5}, {Kind: KindSend, Time: 20}}
	b := []Record{{Kind: KindSend, Time: 1}, {Kind: KindSend, Time: 10}}
	m := Merge(a, b)
	if len(m) != 4 {
		t.Fatalf("merged %d records", len(m))
	}
	for i := 1; i < len(m); i++ {
		if m[i].Time < m[i-1].Time {
			t.Fatal("merge not time-sorted")
		}
	}
}

// mkSend/mkRecv build paired records for matcher tests.
func mkSend(node, peer uint16, id uint64, at time.Duration, copyIdx, copies uint8) Record {
	return Record{Kind: KindSend, Node: node, Peer: peer, ProbeID: id,
		Time: int64(at), CopyIndex: copyIdx, Copies: copies, Via: NoNode}
}

func mkRecv(node, peer uint16, id uint64, at time.Duration, copyIdx uint8) Record {
	return Record{Kind: KindRecv, Node: node, Peer: peer, ProbeID: id,
		Time: int64(at), CopyIndex: copyIdx}
}

// keepAlive emits periodic sends from a node so the host-failure filter
// sees it alive for the whole horizon.
func keepAlive(node uint16, until time.Duration) []Record {
	var out []Record
	id := uint64(node) * 1_000_000
	for at := time.Duration(0); at <= until; at += 30 * time.Second {
		id++
		out = append(out, mkSend(node, (node+1)%3, id, at, 0, 1))
	}
	return out
}

func TestMatchBasicLossAndLatency(t *testing.T) {
	var recs []Record
	recs = append(recs, keepAlive(0, 10*time.Minute)...)
	recs = append(recs, keepAlive(1, 10*time.Minute)...)
	recs = append(recs, keepAlive(2, 10*time.Minute)...)

	// A delivered two-copy probe: copy 0 arrives after 50ms, copy 1 lost.
	recs = append(recs,
		mkSend(0, 1, 555000042, time.Minute, 0, 2),
		mkSend(0, 1, 555000042, time.Minute, 1, 2),
		mkRecv(1, 0, 555000042, time.Minute+50*time.Millisecond, 0),
	)
	obs := Match(Merge(recs), 3)

	var found bool
	for _, o := range obs {
		if o.Src == 0 && o.Dst == 1 && o.Copies == 2 && o.Time == int64(time.Minute) {
			found = true
			if o.Lost[0] || !o.Lost[1] {
				t.Errorf("loss flags = %v, want [false true]", o.Lost)
			}
			if o.Lat[0] != 50*time.Millisecond {
				t.Errorf("latency = %v, want 50ms", o.Lat[0])
			}
		}
	}
	if !found {
		t.Fatal("two-copy probe not matched")
	}
}

func TestMatchReceiveWindow(t *testing.T) {
	var recs []Record
	recs = append(recs, keepAlive(0, 3*time.Hour)...)
	recs = append(recs, keepAlive(1, 3*time.Hour)...)
	recs = append(recs, keepAlive(2, 3*time.Hour)...)
	// A receive 2 hours after its send is outside the 1-hour window:
	// the probe counts as lost.
	recs = append(recs,
		mkSend(0, 1, 555000077, time.Minute+time.Second, 0, 1),
		mkRecv(1, 0, 555000077, 2*time.Hour, 0),
	)
	obs := Match(Merge(recs), 3)
	for _, o := range obs {
		if o.Src == 0 && o.Dst == 1 && o.Time == int64(time.Minute+time.Second) {
			if !o.Lost[0] {
				t.Error("late receive should count as loss")
			}
			return
		}
	}
	t.Fatal("probe not found")
}

func TestMatchHostFailureFilter(t *testing.T) {
	var recs []Record
	recs = append(recs, keepAlive(0, 20*time.Minute)...)
	recs = append(recs, keepAlive(2, 20*time.Minute)...)
	// Node 1 sends probes only during the first 2 minutes, then goes
	// silent (host failure).
	for at := time.Duration(0); at <= 2*time.Minute; at += 30 * time.Second {
		recs = append(recs, mkSend(1, 0, 5000+uint64(at), at, 0, 1))
	}
	// A probe to node 1 while it was alive must be kept...
	recs = append(recs, mkSend(0, 1, 600, time.Minute, 0, 1))
	// ...and one sent 10 minutes after node 1 went silent must be
	// disregarded even though it was "lost".
	recs = append(recs, mkSend(0, 1, 601, 12*time.Minute, 0, 1))

	obs := Match(Merge(recs), 3)
	var sawAlive, sawDead bool
	for _, o := range obs {
		if o.Src == 0 && o.Dst == 1 {
			switch o.Time {
			case int64(time.Minute):
				sawAlive = true
			case int64(12 * time.Minute):
				sawDead = true
			}
		}
	}
	if !sawAlive {
		t.Error("probe to a live host was dropped")
	}
	if sawDead {
		t.Error("probe to a failed host was not disregarded (§4.1)")
	}
}

func TestMatchIgnoresDuplicateReceives(t *testing.T) {
	var recs []Record
	recs = append(recs, keepAlive(0, 10*time.Minute)...)
	recs = append(recs, keepAlive(1, 10*time.Minute)...)
	recs = append(recs, keepAlive(2, 10*time.Minute)...)
	const at = time.Minute + time.Second // off the keepAlive grid
	recs = append(recs,
		mkSend(0, 1, 555000009, at, 0, 1),
		mkRecv(1, 0, 555000009, at+10*time.Millisecond, 0),
		mkRecv(1, 0, 555000009, at+20*time.Millisecond, 0), // dup
	)
	obs := Match(Merge(recs), 3)
	for _, o := range obs {
		if o.Src == 0 && o.Dst == 1 && o.Time == int64(at) {
			if o.Lat[0] != 10*time.Millisecond {
				t.Errorf("latency = %v, want first receive (10ms)", o.Lat[0])
			}
			return
		}
	}
	t.Fatal("probe not found")
}

func TestMatchSkipsIncompleteProbes(t *testing.T) {
	var recs []Record
	recs = append(recs, keepAlive(0, 10*time.Minute)...)
	recs = append(recs, keepAlive(1, 10*time.Minute)...)
	recs = append(recs, keepAlive(2, 10*time.Minute)...)
	// Claims two copies but only copy 0 was logged as sent.
	const at = time.Minute + time.Second // off the keepAlive grid
	recs = append(recs, mkSend(0, 1, 555000088, at, 0, 2))
	obs := Match(Merge(recs), 3)
	for _, o := range obs {
		if o.Src == 0 && o.Dst == 1 && o.Time == int64(at) {
			t.Fatal("incomplete probe pair emitted")
		}
	}
}

func TestRecordRoundTripQuick(t *testing.T) {
	// Property: any structurally valid record survives the binary
	// format bit-exactly.
	f := func(kindBit bool, node, peer uint16, id uint64, tm int64,
		method, tac, copyIdx uint8, via uint16) bool {
		r := Record{
			Kind:      KindSend,
			Node:      node,
			Peer:      peer,
			ProbeID:   id,
			Time:      tm,
			Method:    method,
			Tactic:    route.Tactic(tac % 4),
			CopyIndex: copyIdx % 2,
			Copies:    1 + copyIdx%2,
			Via:       via,
		}
		if kindBit {
			r.Kind = KindRecv
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		if err := w.Append(r); err != nil || w.Flush() != nil {
			return false
		}
		got, err := ReadAll(&buf)
		return err == nil && len(got) == 1 && got[0] == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMergePreservesAllRecordsQuick(t *testing.T) {
	f := func(la, lb uint8) bool {
		a := make([]Record, la%50)
		b := make([]Record, lb%50)
		for i := range a {
			a[i] = Record{Kind: KindSend, Time: int64(i * 7)}
		}
		for i := range b {
			b[i] = Record{Kind: KindRecv, Time: int64(i * 5)}
		}
		m := Merge(a, b)
		if len(m) != len(a)+len(b) {
			return false
		}
		for i := 1; i < len(m); i++ {
			if m[i].Time < m[i-1].Time {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
