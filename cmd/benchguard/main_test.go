package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestCheckMemory(t *testing.T) {
	mem := func(bytes, allocs float64) Bench {
		return Bench{BytesPerOp: ptr(bytes), AllocsPerOp: ptr(allocs)}
	}
	cases := []struct {
		label     string
		name      string
		want, got Bench
		fails     []string // one substring per expected failure, in order
	}{
		{"equal", "BenchmarkCampaign/n=1024-lm", mem(250e6, 3900), mem(250e6, 3900), nil},
		{"allocs at the slack limit", "BenchmarkSweep/serial", mem(1e6, 100), mem(1e6, 104), nil},
		{"allocs over the slack limit", "BenchmarkSweep/serial", mem(1e6, 100), mem(1e6, 105), []string{"allocs/op regressed 100 -> 105"}},
		{"bytes within 2%", "BenchmarkCampaign/n=1024-lm", mem(250e6, 3900), mem(254e6, 3900), nil},
		{"bytes over 2%", "BenchmarkCampaign/n=1024-lm", mem(250e6, 3900), mem(256e6, 3900), []string{"B/op regressed 250000000 -> 256000000"}},
		{"an n² slab back at n=1024", "BenchmarkCampaign/n=1024-lm", mem(250e6, 3900), mem(1012e6, 3942), []string{"B/op regressed"}},
		{"bytes and allocs both", "BenchmarkCampaign/n=256", mem(40e6, 1300), mem(65e6, 1400), []string{"allocs/op regressed", "B/op regressed"}},
		{"bytes improved", "BenchmarkCampaign/n=64", mem(4e6, 215), mem(2e6, 215), nil},
		{"bytes are not gated off the overlay-size curve", "BenchmarkCampaign/paper", mem(490080, 104), mem(900000, 104), nil},
		{"nor on other benchmarks", "BenchmarkSweep/serial", mem(1895537, 478), mem(4e6, 478), nil},
		{"zero-alloc benchmark allocating", "BenchmarkAggregatorObserve", mem(0, 0), mem(16, 1), []string{"must be 0"}},
		{"zero-alloc benchmark gets no slack", "BenchmarkSelectorSnapshot", mem(0, 0), mem(0, 2), []string{"must be 0"}},
		{"baseline without -benchmem numbers", "BenchmarkCampaign/n=64", Bench{}, mem(9e9, 9e9), nil},
		{"run without -benchmem numbers", "BenchmarkCampaign/n=64", mem(4e6, 215), Bench{}, nil},
	}
	for _, c := range cases {
		got := checkMemory(c.name, c.want, c.got)
		if len(got) != len(c.fails) {
			t.Errorf("%s: failures %q, want %d", c.label, got, len(c.fails))
			continue
		}
		for i, sub := range c.fails {
			if !strings.Contains(got[i], sub) || !strings.HasPrefix(got[i], c.name+":") {
				t.Errorf("%s: failure %q does not name %s and %q", c.label, got[i], c.name, sub)
			}
		}
	}
}

// runBaseline is the small baseline TestRun checks runs against: an
// emitted one, so B/op is recorded on the n= curve only.
const runBaseline = `{
  "note": "test",
  "benchmarks": {
    "BenchmarkAggregatorObserve": {"allocs_per_op": 0},
    "BenchmarkCampaign/n=1024": {"allocs_per_op": 4536, "bytes_per_op": 262900000},
    "BenchmarkCampaign/n=1024-lm": {"allocs_per_op": 4188, "bytes_per_op": 90000000},
    "BenchmarkCampaign/paper": {"allocs_per_op": 82},
    "BenchmarkSweep/serial": {"allocs_per_op": 100}
  }
}`

type benchResult struct {
	name              string
	ns, bytes, allocs float64
}

// runResults reads exactly runBaseline's numbers, with full mesh 20×
// slower than landmark probing at n=1024.
var runResults = []benchResult{
	{"BenchmarkSweep/serial", 120e6, 1.9e6, 100},
	{"BenchmarkAggregatorObserve", 28, 0, 0},
	{"BenchmarkCampaign/paper", 16e6, 410000, 82},
	{"BenchmarkCampaign/n=1024", 20e9, 262.9e6, 4536},
	{"BenchmarkCampaign/n=1024-lm", 1e9, 90e6, 4188},
}

// benchText renders results as `go test -bench -benchmem` prints them.
func benchText(results []benchResult) string {
	var b strings.Builder
	b.WriteString("goos: linux\ngoarch: amd64\npkg: repro\n")
	for _, r := range results {
		fmt.Fprintf(&b, "%s-2   \t       1\t%12.1f ns/op\t%10.0f B/op\t%6.0f allocs/op\n", r.name, r.ns, r.bytes, r.allocs)
	}
	b.WriteString("PASS\nok  \trepro\t12.345s\n")
	return b.String()
}

func TestRun(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	if err := os.WriteFile(base, []byte(runBaseline), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		label  string
		mutate func([]benchResult) []benchResult
		fail   string // "" for exit 0, else a substring of stderr
	}{
		{"equal numbers", func(r []benchResult) []benchResult { return r }, ""},
		{"ns/op doubled on every line", func(r []benchResult) []benchResult {
			for i := range r {
				r[i].ns *= 2
			}
			return r
		}, ""},
		{"+5 allocs on a 100-alloc bench", func(r []benchResult) []benchResult {
			r[0].allocs += 5
			return r
		}, "BenchmarkSweep/serial: allocs/op regressed 100 -> 105"},
		{"1 alloc on a zero-baseline bench", func(r []benchResult) []benchResult {
			r[1].allocs = 1
			return r
		}, "BenchmarkAggregatorObserve: allocs/op = 1, must be 0"},
		{"+3% B/op on the n= curve", func(r []benchResult) []benchResult {
			r[4].bytes *= 1.03
			return r
		}, "BenchmarkCampaign/n=1024-lm: B/op regressed 90000000 -> 92700000"},
		{"+50% B/op on Campaign/paper", func(r []benchResult) []benchResult {
			r[2].bytes *= 1.5
			return r
		}, ""},
		{"ratio 4.9", func(r []benchResult) []benchResult {
			r[3].ns = 4.9 * r[4].ns
			return r
		}, "BenchmarkCampaign/n=1024 is only 4.9x slower than BenchmarkCampaign/n=1024-lm"},
		{"a baseline entry missing from the run", func(r []benchResult) []benchResult {
			return r[1:]
		}, "BenchmarkSweep/serial: in the baseline but not in the run"},
	}
	for _, c := range cases {
		text := benchText(c.mutate(append([]benchResult(nil), runResults...)))
		var stdout, stderr bytes.Buffer
		code := run([]string{"-baseline", base}, strings.NewReader(text), &stdout, &stderr)
		if c.fail == "" && code != 0 {
			t.Errorf("%s: exit %d, want 0; stderr:\n%s", c.label, code, &stderr)
		}
		if c.fail != "" && (code != 1 || !strings.Contains(stderr.String(), c.fail)) {
			t.Errorf("%s: exit %d, stderr:\n%s\nwant exit 1 and %q", c.label, code, &stderr, c.fail)
		}
	}

	// A freshly emitted baseline is the gate, number for number: it
	// equals runBaseline's entries, and the run that made it passes it.
	text := benchText(runResults)
	emitted := filepath.Join(dir, "emitted.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-emit", emitted}, strings.NewReader(text), &stdout, &stderr); code != 0 {
		t.Fatalf("-emit: exit %d; stderr:\n%s", code, &stderr)
	}
	if code := run([]string{"-baseline", emitted}, strings.NewReader(text), &stdout, &stderr); code != 0 {
		t.Errorf("-emit output as the baseline of the same run: exit %d; stderr:\n%s", code, &stderr)
	}
	want, err := readBaseline(base)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readBaseline(emitted)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("emitted baseline %v, want %v", got, want)
	}
}
