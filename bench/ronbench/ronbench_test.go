package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = float64(200 - i) // 200..1, unsorted on purpose
	}
	if got := percentile(vals, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190 (ten samples beyond it)", got)
	}
	if got := percentile(vals, 100); got != 200 {
		t.Errorf("p100 of 1..200 = %v, want 200", got)
	}
}

// TestTailMetric pins the "highest percentile with at least ten samples
// beyond it" rule as the benchmark applies it: a p95 is reported from
// 200 samples on, and not before.
func TestTailMetric(t *testing.T) {
	vals := make([]float64, tailSamples)
	for i := range vals {
		vals[i] = float64(i+1) / 1e3 // 1..200 ms, in seconds
	}
	short := newResult("w", false)
	tailMetric(short, "cell_p95_ms", vals[:tailSamples-1])
	if v, ok := short.metrics["cell_p95_ms"]; ok {
		t.Errorf("p95 reported from %d samples: %v", tailSamples-1, v)
	}
	if len(short.notes) != 1 {
		t.Errorf("a withheld p95 must say so once, got notes %q", short.notes)
	}
	full := newResult("w", false)
	tailMetric(full, "cell_p95_ms", vals)
	if got := full.metrics["cell_p95_ms"]; got != 190 {
		t.Errorf("p95 of 1..200 ms = %v, want 190 (ten samples beyond it)", got)
	}
}

func TestTreeDigest(t *testing.T) {
	write := func(root, rel, content string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	digest := func(root string) string {
		t.Helper()
		d, err := treeDigest(root, "results.seg")
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := t.TempDir(), t.TempDir()
	// Same tree, created in different orders; b also holds a results.seg.
	write(a, "g1/table5.txt", "five")
	write(a, "g2/table6.txt", "six")
	write(b, "g2/table6.txt", "six")
	write(b, "g1/table5.txt", "five")
	write(b, "g1/results.seg", "completion-ordered rows")
	if digest(a) != digest(b) {
		t.Error("digest depends on creation order or on a skipped results.seg")
	}
	base := digest(a)
	write(a, "g2/table6.txt", "siX")
	if digest(a) == base {
		t.Error("digest ignores file content")
	}
	write(a, "g2/table6.txt", "six")
	if err := os.Rename(filepath.Join(a, "g2"), filepath.Join(a, "g3")); err != nil {
		t.Fatal(err)
	}
	if digest(a) == base {
		t.Error("digest ignores file paths")
	}
	// Moving bytes across a file boundary must change the digest.
	c, d := t.TempDir(), t.TempDir()
	write(c, "x", "ab")
	write(c, "y", "c")
	write(d, "x", "a")
	write(d, "y", "bc")
	if digest(c) == digest(d) {
		t.Error("digest does not frame file contents")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: ms(0), End: ms(100)},
		{ID: 1, Parent: 0, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 2, Parent: 0, Name: "b", Start: ms(30), End: ms(60)},  // overlaps a: union 10..60
		{ID: 3, Parent: 0, Name: "c", Start: ms(90), End: ms(120)}, // clipped to 90..100
		{ID: 4, Parent: 1, Name: "a.x", Start: ms(15), End: ms(20)},
		{ID: 5, Parent: 9, Name: "orphan", Start: ms(0), End: ms(7)}, // unknown parent: a root
	}
	want := []time.Duration{ms(40), ms(25), ms(30), ms(30), ms(5), ms(7)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, -1)
	if id != -1 || tr.end(id) != 0 || tr.snapshot() != nil {
		t.Error("nil tracer recorded something")
	}
	tr.endAs(id, "y")
}

// benchSpec is BENCHMARK.json as the driver reads it.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(t *testing.T) *benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &s
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func sameDefs(t *testing.T, what string, spec, code []metricDef) {
	t.Helper()
	if len(spec) != len(code) {
		t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark %d", what, len(spec), len(code))
	}
	for i := range spec {
		if i < len(code) && spec[i] != code[i] {
			t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark %+v", what, i, spec[i], code[i])
		}
	}
}

// TestSpecMatchesBenchmark keeps BENCHMARK.json and the benchmark's own
// tables equal, name for name, unit for unit, bound for bound.
func TestSpecMatchesBenchmark(t *testing.T) {
	s := readSpec(t)
	sameDefs(t, "end_to_end", s.EndToEnd, gatedDefs())
	sameDefs(t, "per_layer", s.PerLayer, layerDefs)
	if len(s.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark %d", len(s.Workloads), len(workloadNames))
	}
	seen := map[string]bool{}
	for i, w := range s.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, w.Name, workloadNames[i])
		}
		seen[w.Name] = true
	}
	defs := append([]metricDef(nil), layerDefs...)
	for _, d := range endToEndDefs {
		defs = append(defs, d.metricDef)
	}
	for _, d := range defs {
		if seen[d.Name] {
			t.Errorf("name %q is used twice", d.Name)
		}
		seen[d.Name] = true
	}
	for name := range seen {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
	}
	hasSetup := false
	for _, d := range s.EndToEnd {
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			hasSetup = true
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for name := range pinnedDigests {
		found := false
		for _, w := range workloadNames {
			found = found || w == name
		}
		if !found {
			t.Errorf("digest pinned for unknown workload %q", name)
		}
	}
}

// TestSmoke runs every workload at smoke-test size, untraced and
// traced, and checks that each emits only declared metrics, every gated
// one (non-zero, as the contract wants), and correct outputs.
func TestSmoke(t *testing.T) {
	endToEnd := map[string]endToEndDef{}
	for _, d := range endToEndDefs {
		endToEnd[d.Name] = d
	}
	layers := map[string]bool{}
	for _, d := range layerDefs {
		layers[d.Name] = true
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			work := t.TempDir()
			e := &env{seed: 7, tiny: true, work: filepath.Join(work, "run"),
				spans: filepath.Join(work, "spans.jsonl"), log: io.Discard}
			res, err := runWorkload(e, name, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.correct || res.failed != 0 || res.attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d notes=%q",
					name, traced, res.correct, res.attempted, res.failed, res.notes)
			}
			if traced {
				// A traced run may leave a layer it does not drive unset
				// (reported as 0); it may not invent names.
				for k := range res.metrics {
					if !layers[k] {
						t.Errorf("%s traced: undeclared per-layer metric %q", name, k)
					}
				}
				if res.metrics["core.cell_warm_ms"] <= 0 {
					t.Errorf("%s traced: core.cell_warm_ms = %v, want > 0", name, res.metrics["core.cell_warm_ms"])
				}
				if _, err := os.Stat(e.spans); err != nil {
					t.Errorf("%s traced: no span file: %v", name, err)
				}
				continue
			}
			for k := range res.metrics {
				if _, ok := endToEnd[k]; !ok {
					t.Errorf("%s: undeclared end-to-end metric %q", name, k)
				}
			}
			for _, d := range endToEndDefs {
				if v, ok := res.metrics[d.Name]; d.gated && (!ok || v <= 0) {
					t.Errorf("%s: gated metric %s = %v (present %v), want > 0", name, d.Name, v, ok)
				}
			}
			if res.digest == "" {
				t.Errorf("%s: no output digest", name)
			}
		}
	}
}
