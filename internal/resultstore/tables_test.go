package resultstore

import (
	"bytes"
	"math"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/analysis"
)

// fuzzInput hands out a fuzz input's bytes; past the end it reads
// zeros, so every input decodes to some Tables.
type fuzzInput []byte

func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

func (in *fuzzInput) u64() uint64 {
	var v uint64
	for range 8 {
		v = v<<8 | uint64(in.byte())
	}
	return v
}

// int53 is an integer within ±2⁵³, the range a float64 holds exactly.
func (in *fuzzInput) int53() int64 { return int64(in.u64()) >> 10 }

// float is any float64, NaNs and infinities included, from raw bits.
func (in *fuzzInput) float() float64 { return math.Float64frombits(in.u64()) }

// tablesFrom decodes a fuzz input into a Tables: a flag byte (bit 0 a
// round-trip "RTT" label, bit 1 a workload table, bit 2 a resilience
// table), 1–4 distinct dot-free method names, their Table 5 rows, 0–3
// Table 6 thresholds, the methods' Table 6 rows, then the optional
// tables. Thresholds are whole numbers of at most six digits, as Table
// 6's are: any other prints with a dot ("1.5", "1.234567e+06") that
// would split its column name.
func tablesFrom(data []byte) Tables {
	in := fuzzInput(data)
	flags := in.byte()
	t := Tables{LatencyLabel: "lat"}
	if flags&1 != 0 {
		t.LatencyLabel = "RTT"
	}
	names := make([]string, 1+in.byte()%4)
	for i := range names {
		raw := make([]byte, in.byte()%6)
		for k := range raw {
			if raw[k] = in.byte(); raw[k] == '.' {
				raw[k] = ' '
			}
		}
		// The index as last character keeps the names distinct.
		names[i] = string(raw) + strconv.Itoa(i)
	}
	for _, m := range names {
		t.Overview = append(t.Overview, analysis.MethodTotals{
			Method: m, Probes: in.int53(),
			FirstLossPct: in.float(), SecondLossPct: in.float(),
			TotalLossPct: in.float(), CondLossPct: in.float(),
			MeanLatency: time.Duration(in.int53()), Pair: in.byte()&1 != 0,
		})
	}
	nthr := int(in.byte() % 4)
	for range nthr {
		t.Hours.Thresholds = append(t.Hours.Thresholds, float64(in.int53()%1e6))
	}
	t.Hours.Methods = names
	for range names {
		t.Hours.Periods = append(t.Hours.Periods, in.int53())
		var counts []int64
		for range nthr {
			counts = append(counts, in.int53())
		}
		t.Hours.Counts = append(t.Hours.Counts, counts)
	}
	t.Hours.WorstHourPct = in.float()
	if flags&2 != 0 {
		w := &analysis.WorkloadTable{
			DataShards: int(in.int53()), ParityShards: int(in.int53()), Paths: int(in.int53()),
			ReconstructFailures: in.int53(), Overhead: in.float(),
		}
		for i := range w.Rows {
			w.Rows[i] = analysis.WorkloadTableRow{
				FramesSent: in.int53(), FrameLossPct: in.float(), ShardLossPct: in.float(),
				MeanLatency: time.Duration(in.int53()), P95LatencyMs: in.float(), StreamLoss50Pct: in.float(),
			}
		}
		t.Workload = w
	}
	if flags&4 != 0 {
		s := &analysis.ResilienceTable{UnderlayOutages: in.int53()}
		for i := range s.Rows {
			s.Rows[i] = analysis.ResilienceTableRow{
				ProbesSent: in.int53(), AvailabilityPct: in.float(), MaskedPct: in.float(),
				MeanTTR: time.Duration(in.int53()), P95TTRSeconds: in.float(),
			}
		}
		t.Resilience = s
	}
	return t
}

// sameBits reports whether a and b hold the same value, floats compared
// by bit pattern (so a NaN equals itself and -0 differs from 0) and a
// nil slice or pointer distinct from an empty one.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

// FuzzTablesRoundTrip: the column schema is one table both directions
// walk, so any Tables survives the store: RowTables(Flatten(t)) equals
// t bit for bit, and every section renders the same text.
func FuzzTablesRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 600))
	f.Add(bytes.Repeat([]byte{0x7f, 0xf8, 0, 1, '.', 0x80, 3}, 90))
	for flags := range byte(8) {
		seed := []byte{flags, 3}
		for i := range 500 {
			seed = append(seed, byte(i*131+int(flags)*17))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want := tablesFrom(data)
		got, err := RowTables(&Row{Metrics: want.Flatten(nil)})
		if err != nil {
			t.Fatalf("RowTables of a flattened Tables: %v", err)
		}
		if !sameBits(reflect.ValueOf(*got), reflect.ValueOf(want)) {
			t.Fatalf("round trip changed the tables:\n got %#v\nwant %#v", *got, want)
		}
		gs, ws := got.Sections(), want.Sections()
		if !reflect.DeepEqual(gs, ws) {
			t.Fatalf("round trip changed the sections:\n got %q\nwant %q", gs, ws)
		}
	})
}
