package resultstore

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// streamPool is the column names rowStream draws from. The dictionary
// learns each at its first use, so a stream registers fresh columns
// wherever its steps first name them.
var streamPool = []string{"t5.rtt", "t5.direct.totlp", "t6.worsthour", "wl.bp.losspct", "rs.outages", "win20.loss.p95", "x", "y"}

// rowStream decodes fuzz bytes into an Append sequence and the row
// indices before which the store is closed and reopened. Each byte is a
// step: its low three bits say how the next row's columns relate to
// the rows before it, its high five bits are the step's argument.
//
//	0  the previous row's columns again
//	1  the previous row's columns rotated by 1 + arg: a permutation
//	2  the previous row's columns less the last 1 + arg
//	3  the columns of the row before the previous one: layouts alternate
//	4  arg%8 columns, named by the bytes that follow; a name may repeat
//	5  no columns
//	6  no row: the store is reopened before the next one
//	7  the previous row's columns and streamPool[arg%8], which may be
//	   fresh or a column the row already names
//
// Every value is a distinct bit pattern, NaNs included.
func rowStream(data []byte) (rows []Row, reopen map[int]bool) {
	reopen = map[int]bool{}
	var cur, prev []string
	for k := 0; k < len(data); k++ {
		op, arg := data[k]&7, int(data[k]>>3)
		next := cur
		switch op {
		case 1:
			if len(cur) > 0 {
				r := (1 + arg) % len(cur)
				next = append(slices.Clone(cur[r:]), cur[:r]...)
			}
		case 2:
			next = cur[:max(len(cur)-1-arg, 0)]
		case 3:
			next = prev
		case 4:
			next = nil
			for j := 0; j < arg%8 && k+1 < len(data); j++ {
				k++
				next = append(next, streamPool[int(data[k])%len(streamPool)])
			}
		case 5:
			next = nil
		case 6:
			reopen[len(rows)] = true
			continue
		case 7:
			next = append(slices.Clone(cur), streamPool[arg%len(streamPool)])
		}
		i := len(rows)
		r := Row{Kind: KindCell, Name: fmt.Sprintf("s-r%03d", i), Group: "s", Dataset: "synthetic", Replica: int32(i), Replicas: 1}
		for j, col := range next {
			h := uint64(i)<<16 | uint64(j)
			h ^= h >> 33
			h *= 0xff51afd7ed558ccd
			h ^= h >> 33
			r.Metrics = append(r.Metrics, Metric{col, math.Float64frombits(h)})
		}
		rows = append(rows, r)
		prev, cur = cur, next
	}
	return rows, reopen
}

// firstWins is the reference decode of a written metric vector: the
// first value of each column, in the order written.
func firstWins(metrics []Metric) []Metric {
	var out []Metric
	for _, m := range metrics {
		if !slices.ContainsFunc(out, func(o Metric) bool { return o.Col == m.Col }) {
			out = append(out, m)
		}
	}
	return out
}

// FuzzDecodedRowsMatchWritten holds ReadSegment's read form to a
// reference decode of what was appended. The fuzz bytes are a
// rowStream; every decoded row must carry no write form, and its
// columns and values must be the written row's first-wins decode,
// column for column and bit for bit. Rows with the same column sequence
// must share one names slice.
func FuzzDecodedRowsMatchWritten(f *testing.F) {
	f.Add([]byte{0})
	// Four columns, repeated, rotated, shortened, alternating, extended
	// by a fresh column, empty, then a fresh column named twice.
	f.Add([]byte{4 | 4<<3, 0, 1, 2, 3, 0, 0, 1, 0, 2, 3, 3, 3, 7 | 4<<3, 2, 5, 4 | 3<<3, 5, 0, 5, 0})
	// Two columns swapped, with reopens between rows.
	f.Add([]byte{4 | 2<<3, 0, 1, 1, 6, 0, 3, 6, 7 | 6<<3, 3})
	// A row that names its only column twice, then the same kept layout.
	f.Add([]byte{4 | 2<<3, 6, 6, 4 | 1<<3, 6, 7 | 6<<3})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			t.Skip("stream longer than 512 steps")
		}
		rows, reopen := rowStream(data)
		path := filepath.Join(t.TempDir(), SegmentFileName)
		st, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rows {
			if reopen[i] {
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				if st, err = Open(path); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Append(&rows[i]); err != nil {
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
		if len(seg.Rows) != len(rows) || seg.TruncatedBytes != 0 {
			t.Fatalf("read %d rows with %d torn bytes, wrote %d", len(seg.Rows), seg.TruncatedBytes, len(rows))
		}
		shared := map[string]*string{}
		for i := range rows {
			got, want := &seg.Rows[i], firstWins(rows[i].Metrics)
			if got.Metrics != nil || got.Name != rows[i].Name {
				t.Fatalf("row %d: decoded %q with write form %v", i, got.Name, got.Metrics)
			}
			if n := got.NumMetrics(); n != len(want) {
				t.Fatalf("row %d: %d metrics, want %d", i, n, len(want))
			}
			for j := range want {
				col, val := got.MetricAt(j)
				if col != want[j].Col || math.Float64bits(val) != math.Float64bits(want[j].Val) {
					t.Fatalf("row %d metric %d: %s=%#x, want %s=%#x", i, j,
						col, math.Float64bits(val), want[j].Col, math.Float64bits(want[j].Val))
				}
			}
			if len(want) == 0 {
				continue
			}
			key := strings.Join(got.cols, "\x00")
			if p, ok := shared[key]; ok && p != &got.cols[0] {
				t.Fatalf("row %d holds its own names slice for a column sequence an earlier row has", i)
			}
			shared[key] = &got.cols[0]
		}
	})
}
