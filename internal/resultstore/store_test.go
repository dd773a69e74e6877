package resultstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func testRows() []Row {
	return []Row{
		{
			Kind: KindCell, Name: "grid-a-r00", Group: "grid-a", Dataset: "ronnarrow",
			Replica: 0, Replicas: 1, Hosts: 12, Seed: 42, Days: 0.02,
			RONProbes: 123456, MeasureProbes: 7890, RouteChanges: 17,
			Snapshot: "cells/grid-a-r00.snap",
			Axes:     []AxisKV{{"scenario", "outage"}, {"streams", "2"}},
			Metrics: []Metric{
				{"t5.rtt", 1}, {"t5.direct.order", 0}, {"t5.direct.totlp", 0.0213},
				{"t6.worsthour", 0.31}, {"wl.bp.losspct", 4.5},
			},
		},
		{
			Kind: KindCell, Name: "grid-a-r01", Group: "grid-a", Dataset: "ronnarrow",
			Replica: 1, Replicas: 1, Hosts: 12, Seed: 43, Days: 0.02,
			RONProbes: 123999, MeasureProbes: 7891, RouteChanges: 21,
			Snapshot: "cells/grid-a-r01.snap",
			Axes:     []AxisKV{{"scenario", "outage"}, {"streams", "2"}},
			Metrics: []Metric{
				// Same columns in a different order plus one fresh column:
				// exercises dictionary growth across appends.
				{"t5.direct.totlp", 0.0219}, {"t5.rtt", 1},
				{"rs.outages", 3}, {"t6.worsthour", 0.29},
			},
		},
		{
			Kind: KindGroup, Name: "grid-a", Group: "grid-a", Dataset: "ronnarrow",
			Replica: -1, Replicas: 2, Hosts: 12, Seed: 0, Days: 0.02,
			RONProbes: 247455, MeasureProbes: 15781, RouteChanges: 38,
			Axes:    []AxisKV{{"scenario", "outage"}, {"streams", "2"}},
			Metrics: []Metric{{"t5.rtt", 1}, {"t5.direct.totlp", 0.0216}},
		},
		{
			// Degenerate row: no axes, no metrics, no snapshot.
			Kind: KindCell, Name: "bare-r00", Group: "bare", Dataset: "synthetic",
			Replica: 0, Replicas: 1, Hosts: 3, Seed: 7, Days: 1,
		},
	}
}

// asWritten returns r with its metric vector in the write form, so a
// decoded row and the row it was written from compare with DeepEqual.
func asWritten(r Row) Row {
	var metrics []Metric
	for i := range r.NumMetrics() {
		col, val := r.MetricAt(i)
		metrics = append(metrics, Metric{col, val})
	}
	r.Metrics, r.cols, r.vals = metrics, nil, nil
	return r
}

func writeSegment(t *testing.T, path string, rows []Row) {
	t.Helper()
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		r := rows[i]
		if err := st.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), SegmentFileName)
	rows := testRows()
	writeSegment(t, path, rows)

	seg, err := ReadSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	if seg.TruncatedBytes != 0 {
		t.Fatalf("clean segment reports %d truncated bytes", seg.TruncatedBytes)
	}
	if len(seg.Rows) != len(rows) {
		t.Fatalf("read %d rows, wrote %d", len(seg.Rows), len(rows))
	}
	for i := range rows {
		if seg.Rows[i].Metrics != nil {
			t.Errorf("decoded row %d holds the write form", i)
		}
		if !reflect.DeepEqual(asWritten(seg.Rows[i]), asWritten(rows[i])) {
			t.Errorf("row %d round-trip mismatch:\n got %+v\nwant %+v", i, asWritten(seg.Rows[i]), rows[i])
		}
	}
	// Append reads the read form too: the decoded rows write the same
	// segment again.
	again := filepath.Join(t.TempDir(), SegmentFileName)
	writeSegment(t, again, seg.Rows)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(again); err != nil || string(got) != string(want) {
		t.Errorf("re-appending the decoded rows wrote other bytes (err %v)", err)
	}
}

func TestReopenExtends(t *testing.T) {
	path := filepath.Join(t.TempDir(), SegmentFileName)
	rows := testRows()
	writeSegment(t, path, rows[:2])

	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Rows(); got != 2 {
		t.Fatalf("reopened store reports %d rows, want 2", got)
	}
	for i := 2; i < len(rows); i++ {
		r := rows[i]
		if err := st.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	seg, err := ReadSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(seg.Rows) != len(rows) {
		t.Fatalf("read %d rows after reopen, want %d", len(seg.Rows), len(rows))
	}
	for i := range rows {
		if !reflect.DeepEqual(asWritten(seg.Rows[i]), asWritten(rows[i])) {
			t.Errorf("row %d mismatch after reopen-append", i)
		}
	}
}

// TestTruncationRecovery chops the segment at every byte offset,
// reopens it (which must truncate the torn tail and keep every
// CRC-complete row), appends a healing row, and verifies the result is
// a clean prefix of the original plus the new row.
func TestTruncationRecovery(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, SegmentFileName)
	rows := testRows()
	writeSegment(t, full, rows)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	heal := Row{Kind: KindCell, Name: "heal-r00", Group: "heal", Dataset: "synthetic",
		Replicas: 1, Hosts: 2, Days: 0.5, Metrics: []Metric{{"t5.rtt", 0}}}

	torn := filepath.Join(dir, "torn.seg")
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(torn)
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		recovered := st.Rows()
		h := heal
		if err := st.Append(&h); err != nil {
			t.Fatalf("cut %d: heal append: %v", cut, err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		seg, err := ReadSegment(torn)
		if err != nil {
			t.Fatalf("cut %d: read: %v", cut, err)
		}
		if seg.TruncatedBytes != 0 {
			t.Fatalf("cut %d: healed segment still reports %d torn bytes", cut, seg.TruncatedBytes)
		}
		if int64(len(seg.Rows)) != recovered+1 {
			t.Fatalf("cut %d: read %d rows, recovery reported %d", cut, len(seg.Rows), recovered)
		}
		n := len(seg.Rows) - 1
		if n > len(rows) {
			t.Fatalf("cut %d: recovered %d rows from a %d-row original", cut, n, len(rows))
		}
		for i := 0; i < n; i++ {
			if !reflect.DeepEqual(asWritten(seg.Rows[i]), asWritten(rows[i])) {
				t.Fatalf("cut %d: recovered row %d is not the original prefix", cut, i)
			}
		}
		if !reflect.DeepEqual(asWritten(seg.Rows[n]), asWritten(heal)) {
			t.Fatalf("cut %d: healing row did not round-trip", cut)
		}
	}
}

func TestUniqueFirstWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), SegmentFileName)
	rows := testRows()
	dup := rows[0]
	dup.Seed = 999 // re-appended after a coordinator restart, drifted payload
	writeSegment(t, path, append(rows, dup))

	seg, err := ReadSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	uniq := seg.Unique()
	if len(uniq) != len(rows) {
		t.Fatalf("Unique kept %d rows, want %d", len(uniq), len(rows))
	}
	if uniq[0].Seed != rows[0].Seed {
		t.Fatalf("Unique kept the later duplicate (seed %d), want first occurrence (seed %d)",
			uniq[0].Seed, rows[0].Seed)
	}
}

func TestOpenRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notastore.seg")
	if err := os.WriteFile(path, []byte("definitely not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("Open accepted a file with the wrong magic")
	}
	if _, err := ReadSegment(path); err == nil {
		t.Fatal("ReadSegment accepted a file with the wrong magic")
	}
}

// frameBlock frames payload as a block of the given kind with a valid
// CRC.
func frameBlock(kind byte, payload []byte) []byte {
	b := []byte{kind, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(b[1:], uint32(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// columnsPayload is a dictionary block's payload naming names.
func columnsPayload(names ...string) []byte {
	p := binary.AppendUvarint(nil, uint64(len(names)))
	for _, n := range names {
		p = binary.AppendUvarint(p, uint64(len(n)))
		p = append(p, n...)
	}
	return p
}

// lyingRow is a row payload whose fixed fields and strings are valid and
// whose axis and metric counts are the ones given, with nothing behind
// them.
func lyingRow(axes, metrics uint64) []byte {
	p := make([]byte, 1+52+4) // kind, fixed fields, four empty strings
	p[0] = rowKindCell
	p = binary.AppendUvarint(p, axes)
	if axes == 0 {
		p = binary.AppendUvarint(p, metrics)
	}
	return p
}

// FuzzSegmentRecovery flips one byte anywhere past the magic and/or
// appends tail as a CRC-valid row block (a dictionary block when dict
// is set), and checks the reader's guarantee: the original rows that
// survive decoding are an exact prefix of what was written — corruption
// can shorten the store, never fabricate or reorder rows — and a block
// the checksum vouches for is still not trusted to size anything. When
// Open and ReadSegment keep the same rows, a row appended after Open
// must read back as written: both sides hold one dictionary.
func FuzzSegmentRecovery(f *testing.F) {
	path := filepath.Join(f.TempDir(), SegmentFileName)
	rows := make([]Row, 0, 4)
	st, err := Open(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range testRows() {
		rows = append(rows, r)
		if err := st.Append(&r); err != nil {
			f.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}

	f.Add(uint32(8), byte(1), []byte(nil), false)
	f.Add(uint32(9), byte(0xff), []byte(nil), false)
	f.Add(uint32(len(pristine)/2), byte(0x80), []byte(nil), false)
	f.Add(uint32(len(pristine)-1), byte(7), []byte(nil), false)
	// Counts no payload could back: 2⁴⁰ metrics is 8 TB of values.
	f.Add(uint32(0), byte(0), lyingRow(0, 1<<40), false)
	f.Add(uint32(0), byte(0), lyingRow(1<<40, 0), false)
	// The largest counts the bound lets through, then found short.
	f.Add(uint32(0), byte(0), append(lyingRow(0, 2), make([]byte, 2*minMetricBytes-1)...), false)
	f.Add(uint32(0), byte(0), append(lyingRow(3, 0), make([]byte, 3*minAxisBytes)...), false)
	// Dictionary blocks naming a column twice, or one already held.
	f.Add(uint32(0), byte(0), columnsPayload("x", "x"), true)
	f.Add(uint32(0), byte(0), columnsPayload("fresh", "t5.rtt"), true)
	f.Add(uint32(0), byte(0), columnsPayload("fresh"), true)

	f.Fuzz(func(t *testing.T, pos uint32, val byte, tail []byte, dict bool) {
		flip := int(pos) < len(pristine) && pos >= uint32(len(storeMagic))
		if !flip && len(tail) == 0 {
			t.Skip()
		}
		data := append([]byte(nil), pristine...)
		if flip {
			data[pos] ^= val | 1 // guarantee at least one flipped bit
		}
		if len(tail) > 0 {
			kind := byte(blockRow)
			if dict {
				kind = blockColumns
			}
			data = append(data, frameBlock(kind, tail)...)
		}
		corrupt := filepath.Join(t.TempDir(), "corrupt.seg")
		if err := os.WriteFile(corrupt, data, 0o644); err != nil {
			t.Fatal(err)
		}
		seg, err := ReadSegment(corrupt)
		if err != nil {
			t.Fatalf("ReadSegment errored on tail corruption: %v", err)
		}
		// The tail block may decode (the fuzzer is free to find a valid
		// payload); the rows before it are the originals or fewer.
		if len(seg.Rows) > len(rows)+1 || len(tail) == 0 && len(seg.Rows) > len(rows) {
			t.Fatalf("decoded %d rows from a %d-row original", len(seg.Rows), len(rows))
		}
		if !flip && len(seg.Rows) < len(rows) {
			t.Fatalf("an appended block cost %d of the rows before it", len(rows)-len(seg.Rows))
		}
		for i := range seg.Rows[:min(len(seg.Rows), len(rows))] {
			if !reflect.DeepEqual(asWritten(seg.Rows[i]), asWritten(rows[i])) {
				t.Fatalf("row %d after corruption at %d is not the original prefix", i, pos)
			}
		}
		// Open must draw the torn-tail line no later than ReadSegment's
		// frame check does, through the same scanner.
		reopened, err := Open(corrupt)
		if err != nil {
			t.Fatalf("Open errored on tail corruption: %v", err)
		}
		kept := reopened.Rows()
		if kept < int64(len(seg.Rows)) {
			reopened.Close()
			t.Fatalf("Open kept %d rows, ReadSegment decoded %d", kept, len(seg.Rows))
		}
		heal := Row{Kind: KindCell, Name: "heal-r00", Group: "heal", Dataset: "synthetic", Replicas: 1,
			Metrics: []Metric{{"heal.fresh", 7}, {"t5.rtt", 1}}}
		err = reopened.Append(&heal)
		if cerr := reopened.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		if kept != int64(len(seg.Rows)) {
			return // a row block Open counts and ReadSegment refuses ends the read first
		}
		healed, err := ReadSegment(corrupt)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(healed.Rows); n != len(seg.Rows)+1 || healed.TruncatedBytes != 0 {
			t.Fatalf("healed segment reads %d rows with %d torn bytes, want %d and 0", n, healed.TruncatedBytes, len(seg.Rows)+1)
		}
		if got := asWritten(healed.Rows[len(seg.Rows)]); !reflect.DeepEqual(got, asWritten(heal)) {
			t.Fatalf("row appended after Open reads back as %v, want %v", got.Metrics, heal.Metrics)
		}
	})
}

// TestRepeatedDictionaryNameIsTorn pins one rule for Open and
// ReadSegment: a dictionary block that names a column twice, or one the
// dictionary already holds, is the torn boundary on both sides. Were
// the writer to assign IDs without the repeat and the reader with it,
// every later column ID would mean another name to the reader.
func TestRepeatedDictionaryNameIsTorn(t *testing.T) {
	y := Row{Kind: KindCell, Name: "y-r00", Group: "y", Dataset: "synthetic", Replicas: 1, Metrics: []Metric{{"y", 7}}}
	for _, c := range []struct {
		name  string
		rows  []Row  // written first
		block []byte // then this dictionary block
		cols  []string
	}{
		{"one name twice", nil, columnsPayload("x", "x"), []string{"y"}},
		{"a name already held", testRows()[2:3], columnsPayload("fresh", "t5.rtt"), []string{"t5.rtt", "t5.direct.totlp", "y"}},
	} {
		path := filepath.Join(t.TempDir(), SegmentFileName)
		writeSegment(t, path, c.rows)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, frameBlock(blockColumns, c.block)...), 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		r := y
		err = st.Append(&r)
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		seg, err := ReadSegment(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seg.Columns, c.cols) || seg.TruncatedBytes != 0 {
			t.Errorf("%s: columns %q with %d torn bytes, want %q and 0", c.name, seg.Columns, seg.TruncatedBytes, c.cols)
		}
		want := append(append([]Row(nil), c.rows...), y)
		if len(seg.Rows) != len(want) {
			t.Fatalf("%s: read %d rows, want %d", c.name, len(seg.Rows), len(want))
		}
		for i := range want {
			if got := asWritten(seg.Rows[i]); !reflect.DeepEqual(got, asWritten(want[i])) {
				t.Errorf("%s: row %d reads back as %v, want %v", c.name, i, got.Metrics, want[i].Metrics)
			}
		}
	}
}

// TestLyingCountsRejected states what the fuzz seeds above rely on: a
// CRC-valid row block whose axis or metric count exceeds what its
// payload could hold is refused before anything is allocated for it,
// and everything before it is kept.
func TestLyingCountsRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), SegmentFileName)
	rows := testRows()
	writeSegment(t, path, rows)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string][]byte{
		"metrics": lyingRow(0, 1<<40),
		"axes":    lyingRow(1<<40, 0),
	} {
		block := frameBlock(blockRow, payload)
		if err := os.WriteFile(path, append(append([]byte(nil), clean...), block...), 0o644); err != nil {
			t.Fatal(err)
		}
		var seg *Segment
		allocs := testing.AllocsPerRun(1, func() {
			if seg, err = ReadSegment(path); err != nil {
				t.Fatal(err)
			}
		})
		if len(seg.Rows) != len(rows) || seg.TruncatedBytes != int64(len(block)) {
			t.Errorf("2⁴⁰ %s: read %d rows, %d torn bytes; want %d rows, %d torn bytes",
				name, len(seg.Rows), seg.TruncatedBytes, len(rows), len(block))
		}
		if allocs > 100 {
			t.Errorf("2⁴⁰ %s: ReadSegment made %.0f allocations over a %d-row segment", name, allocs, len(rows))
		}
	}
}

// TestBlockLargerThanScanBuffer round-trips a row whose dictionary and
// row blocks both exceed the scanner's read buffer and whose metric
// vector exceeds a slab chunk, between ordinary rows.
func TestBlockLargerThanScanBuffer(t *testing.T) {
	path := filepath.Join(t.TempDir(), SegmentFileName)
	rows := testRows()[:2]
	big := Row{Kind: KindCell, Name: "big-r00", Group: "big", Dataset: "synthetic", Replicas: 1, Hosts: 2, Days: 1}
	for i := 0; i*(2+8) <= scanBufSize; i++ {
		big.Metrics = append(big.Metrics, Metric{fmt.Sprintf("x.col%06d", i), float64(i)})
	}
	if len(big.Metrics) <= slabMax {
		t.Fatalf("big row has %d metrics, want more than a %d-element slab chunk", len(big.Metrics), slabMax)
	}
	rows = append(rows, big, testRows()[2])
	writeSegment(t, path, rows)

	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Rows(); got != int64(len(rows)) {
		t.Errorf("Open recovered %d rows, want %d", got, len(rows))
	}
	st.Close()
	seg, err := ReadSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	if seg.TruncatedBytes != 0 || len(seg.Rows) != len(rows) {
		t.Fatalf("read %d rows with %d torn bytes, want %d and 0", len(seg.Rows), seg.TruncatedBytes, len(rows))
	}
	for i := range rows {
		if !reflect.DeepEqual(asWritten(seg.Rows[i]), asWritten(rows[i])) {
			t.Errorf("row %d (%s) did not round-trip", i, rows[i].Name)
		}
	}
}

// TestDecodedRowsShareNothingMutable checks the slab carving: appending
// to one decoded row's values, names or Axes must not write into its
// neighbour's or into the names other rows share.
func TestDecodedRowsShareNothingMutable(t *testing.T) {
	path := filepath.Join(t.TempDir(), SegmentFileName)
	rows := testRows()
	writeSegment(t, path, rows)
	seg, err := ReadSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = append(seg.Rows[0].vals, -1)
	_ = append(seg.Rows[0].cols, "scribble")
	_ = append(seg.Rows[0].Axes, AxisKV{"scribble", "x"})
	for i := range rows {
		if !reflect.DeepEqual(asWritten(seg.Rows[i]), asWritten(rows[i])) {
			t.Errorf("row %d changed after an append to row 0's slices", i)
		}
	}
}

// TestRepeatedColumnFirstWins: Append writes a row that names a column
// twice as given; ReadSegment keeps the first occurrence, so the
// positional lookup in MetricValues and the scan in MetricValue agree
// on everything read from a segment.
func TestRepeatedColumnFirstWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), SegmentFileName)
	base := Row{Kind: KindCell, Group: "g", Dataset: "d", Replicas: 1}
	var rows []Row
	for i, m := range [][]Metric{
		{{"a", 1}, {"b", 2}, {"c", 3}},
		{{"b", 10}, {"a", 11}, {"b", 12}, {"c", 13}}, // b again, after a's usual place
		{{"a", 21}, {"b", 22}, {"c", 23}},
		{{"c", 30}, {"c", 31}, {"c", 32}},
	} {
		r := base
		r.Name, r.Metrics = fmt.Sprintf("g-r%02d", i), m
		rows = append(rows, r)
	}
	writeSegment(t, path, rows)
	seg, err := ReadSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(seg.Rows) != len(rows) || seg.TruncatedBytes != 0 {
		t.Fatalf("read %d rows with %d torn bytes", len(seg.Rows), seg.TruncatedBytes)
	}
	want := [][]Metric{
		{{"a", 1}, {"b", 2}, {"c", 3}},
		{{"b", 10}, {"a", 11}, {"c", 13}},
		{{"a", 21}, {"b", 22}, {"c", 23}},
		{{"c", 30}},
	}
	for i := range want {
		if got := asWritten(seg.Rows[i]).Metrics; !reflect.DeepEqual(got, want[i]) {
			t.Errorf("row %d metrics = %v, want %v", i, got, want[i])
		}
	}
	uniq := seg.Unique()
	for _, col := range []string{"a", "b", "c", "absent"} {
		checkMetricValues(t, uniq, col)
	}
}

// layoutStream is an Append sequence that exercises every way a row's
// column layout can relate to the previous row's: repeated, permuted at
// the same length, shortened, alternating between two layouts, extended
// by a column the dictionary has never seen (mid-stream, and twice
// within one row), and empty.
func layoutStream() []Row {
	wide := []Metric{{"t5.rtt", 1}, {"t5.direct.totlp", 0.5}, {"t6.worsthour", 0.25}, {"wl.bp.losspct", 4}}
	narrow := []Metric{{"t6.worsthour", 0.75}, {"t5.rtt", 0}}
	var rows []Row
	add := func(kind string, metrics []Metric) {
		i := len(rows)
		r := Row{Kind: kind, Name: fmt.Sprintf("g%d-r%02d", i/4, i%4), Group: fmt.Sprintf("g%d", i/4),
			Dataset: "ronnarrow", Replica: int32(i % 4), Replicas: 1, Hosts: 12, Seed: uint64(100 + i), Days: 0.02,
			Axes: []AxisKV{{"scenario", []string{"0", "outage"}[i%2]}}}
		for _, m := range metrics {
			r.Metrics = append(r.Metrics, Metric{m.Col, m.Val + float64(i)})
		}
		rows = append(rows, r)
	}
	for i := 0; i < 3; i++ {
		add(KindCell, wide)
	}
	add(KindCell, []Metric{wide[3], wide[1], wide[2], wide[0]}) // same columns, same count, another order
	add(KindCell, wide)
	for i := 0; i < 4; i++ { // alternate: the cache misses on every row
		add(KindCell, narrow)
		add(KindGroup, wide)
	}
	add(KindCell, append(append([]Metric(nil), wide...), Metric{"rs.outages", 3})) // fresh column mid-stream
	add(KindCell, wide)                                                            // same prefix, one shorter
	add(KindCell, nil)
	add(KindCell, []Metric{{"win20.loss.p95", 1}, {"t5.rtt", 2}, {"win20.loss.p95", 3}}) // fresh column, twice in one row
	add(KindCell, []Metric{{"win20.loss.p95", 1}, {"t5.rtt", 2}, {"win20.loss.p95", 3}})
	return rows
}

// TestLayoutCacheKeepsBytes pins the segment the layout-cached Append
// writes for layoutStream to the digest of what the map-per-metric
// Append it replaced wrote: the cache may only change how IDs are
// found, never which bytes follow.
func TestLayoutCacheKeepsBytes(t *testing.T) {
	const want = "bbbdd2231f66b746e4e968f4b904093424eb47660f775495ae615d342738ef1c"
	path := filepath.Join(t.TempDir(), SegmentFileName)
	rows := layoutStream()
	writeSegment(t, path, rows[:11])
	st, err := Open(path) // a reopened store starts with no cached layout
	if err != nil {
		t.Fatal(err)
	}
	for i := 11; i < len(rows); i++ {
		if err := st.Append(&rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("segment digest %s, want %s (%d bytes)", got, want, len(data))
	}
}
