// Command benchguard holds the campaign engine's performance envelope
// against the committed BENCH_campaign.json, gating only numbers the
// machine cannot change. Timing belongs to bench/ronbench, which
// measures it in interleaved pairs.
//
// Record the baseline from a benchmark run (the `go test` line of CI's
// bench-guard job):
//
//	go test -run '^$' -bench '...' -benchmem . ./internal/core/ | benchguard -emit BENCH_campaign.json
//
// Check a fresh run against it, failing the process on regression:
//
//	benchguard -input bench.txt -baseline BENCH_campaign.json
//
// The checks, all read off the baseline:
//
//   - Every baseline entry must be in the run: a renamed benchmark or a
//     narrowed -bench regex fails by name instead of dropping its check.
//   - allocs/op: an entry recorded at 0 must read exactly 0 (the hot
//     paths that were made allocation-free stay so); any other count
//     may exceed its baseline by 2% + 2 (macro benchmarks pick up ±1
//     alloc of scheduling noise from the sweep worker pool).
//   - B/op, by the same slack, on the overlay-size curve
//     (BenchmarkCampaign/n=…) only, where bytes per cold cell are the
//     big-world memory footprint: per-link and per-path state must
//     stay sized by what a cell uses, not by n².
//   - One same-run ratio: full-mesh probing at n=1024 must stay at
//     least minSpeedup times slower than landmark probing, a scaling
//     law immune to host speed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// The ratio gate: ns/op of ratioSlow over ratioFast in the same run.
// Six runs on a 2-CPU container read 13.4× to 18.0×; the floor absorbs
// runner noise.
const (
	ratioSlow  = "BenchmarkCampaign/n=1024"
	ratioFast  = "BenchmarkCampaign/n=1024-lm"
	minSpeedup = 5
)

// note is the baseline file's one line of prose.
const note = "Data only: how each entry was recorded, and the command that regenerates the file, are in docs/ARCHITECTURE.md, 'How BENCH_campaign.json was recorded'."

// Bench is one benchmark's gated numbers.
type Bench struct {
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
}

// File is BENCH_campaign.json.
type File struct {
	Note       string           `json:"note"`
	Benchmarks map[string]Bench `json:"benchmarks"`
}

// sample is one benchmark's reading in a run: its memory numbers, and
// ns/op for the ratio gate.
type sample struct {
	Bench
	ns float64
}

// gated returns the numbers of b that the gate holds: allocs/op on
// every benchmark, B/op on the overlay-size curve only. -emit writes
// exactly these, so a recorded baseline is the gate, number for number.
func gated(name string, b Bench) Bench {
	if !strings.HasPrefix(name, "BenchmarkCampaign/n=") {
		b.BytesPerOp = nil
	}
	return b
}

// benchLine matches `go test -bench` result lines, e.g.
//
//	BenchmarkCampaign-8  54  19558482 ns/op  3274283 probes/sec  523024 B/op  2161 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

func parseBenchOutput(r io.Reader) (map[string]sample, error) {
	out := map[string]sample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := m[1]
		fields := strings.Fields(m[2])
		var s sample
		seen := false
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				s.ns = v
				seen = true
			case "B/op":
				s.BytesPerOp = ptr(v)
			case "allocs/op":
				s.AllocsPerOp = ptr(v)
			}
		}
		if !seen {
			continue
		}
		// -count>1 repeats each benchmark; keep the minimum of every
		// number: transient goroutine noise only ever adds allocations,
		// and the ratio compares the two curves' best runs.
		if prev, ok := out[name]; ok {
			s.ns = min(s.ns, prev.ns)
			s.BytesPerOp = minPtr(prev.BytesPerOp, s.BytesPerOp)
			s.AllocsPerOp = minPtr(prev.AllocsPerOp, s.AllocsPerOp)
		}
		out[name] = s
	}
	return out, sc.Err()
}

func minPtr(a, b *float64) *float64 {
	if a == nil {
		return b
	}
	if b == nil || *a < *b {
		return a
	}
	return b
}

func ptr(v float64) *float64 { return &v }

// overSlack reports whether a machine-independent count (allocs/op,
// B/op) exceeds its baseline by more than 2% + 2.
func overSlack(want, got float64) bool { return got > want*1.02+2 }

// checkMemory returns one benchmark's allocation and byte failures
// against its baseline entry.
func checkMemory(name string, want, got Bench) []string {
	want = gated(name, want)
	var failures []string
	if want.AllocsPerOp != nil && got.AllocsPerOp != nil {
		if *want.AllocsPerOp == 0 && *got.AllocsPerOp != 0 {
			failures = append(failures, fmt.Sprintf(
				"%s: allocs/op = %.0f, must be 0 (allocation-free hot path)",
				name, *got.AllocsPerOp))
		} else if overSlack(*want.AllocsPerOp, *got.AllocsPerOp) {
			failures = append(failures, fmt.Sprintf(
				"%s: allocs/op regressed %.0f -> %.0f (allocation counts are machine-independent; this is a real regression)",
				name, *want.AllocsPerOp, *got.AllocsPerOp))
		}
	}
	if want.BytesPerOp != nil && got.BytesPerOp != nil && overSlack(*want.BytesPerOp, *got.BytesPerOp) {
		failures = append(failures, fmt.Sprintf(
			"%s: B/op regressed %.0f -> %.0f (a cold cell's bytes are its world's footprint; some slab is sized by n² again)",
			name, *want.BytesPerOp, *got.BytesPerOp))
	}
	return failures
}

// check returns every failure of a run against the baseline.
func check(base map[string]Bench, current map[string]sample) []string {
	var failures []string
	for _, name := range slices.Sorted(maps.Keys(base)) {
		want := base[name]
		got, ok := current[name]
		if !ok {
			failures = append(failures, fmt.Sprintf(
				"%s: in the baseline but not in the run (renamed, or dropped from the -bench regex?)", name))
			continue
		}
		failures = append(failures, checkMemory(name, want, got.Bench)...)
	}
	slow, okS := current[ratioSlow]
	fast, okF := current[ratioFast]
	if okS && okF && !(slow.ns/fast.ns >= minSpeedup) {
		failures = append(failures, fmt.Sprintf(
			"%s is only %.1fx slower than %s, want >= %dx (scaling-law regression)",
			ratioSlow, slow.ns/fast.ns, ratioFast, minSpeedup))
	}
	return failures
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is benchguard with its arguments and streams passed in; it
// returns the process exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		input    = fs.String("input", "-", "file of 'go test -bench -benchmem' output to read; '-' reads stdin")
		baseline = fs.String("baseline", "", "committed BENCH_campaign.json to check the run against")
		emit     = fs.String("emit", "", "instead of checking, write the run's gated numbers as a baseline file to this path ('-' for stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintln(stderr, "benchguard:", fmt.Sprintf(format, a...))
		return 1
	}
	if *emit == "" && *baseline == "" {
		return fail("nothing to do: pass -emit or -baseline")
	}

	current, err := readBenches(*input, stdin)
	if err != nil {
		return fail("reading benchmarks: %v", err)
	}
	if len(current) == 0 {
		return fail("no benchmark results found in %s", *input)
	}

	if *emit != "" {
		f := File{Note: note, Benchmarks: map[string]Bench{}}
		for name, s := range current {
			f.Benchmarks[name] = gated(name, s.Bench)
		}
		buf, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			return fail("%v", err)
		}
		buf = append(buf, '\n')
		if *emit == "-" {
			stdout.Write(buf)
		} else if err := os.WriteFile(*emit, buf, 0o644); err != nil {
			return fail("%v", err)
		}
		return 0
	}

	base, err := readBaseline(*baseline)
	if err != nil {
		return fail("reading baseline: %v", err)
	}
	failures := check(base, current)
	fmt.Fprintf(stdout, "benchguard: checked %d baseline benchmarks\n", len(base))
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(stderr, "benchguard: FAIL:", f)
		}
		return 1
	}
	fmt.Fprintln(stdout, "benchguard: OK")
	return 0
}

// readBenches parses `go test -bench` output from a file, or from
// stdin when path is "-".
func readBenches(path string, stdin io.Reader) (map[string]sample, error) {
	if path == "-" {
		return parseBenchOutput(stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseBenchOutput(f)
}

// readBaseline loads the committed baseline's entries. A field the
// gate does not read is an error, so every number in the file is one
// the gate holds.
func readBaseline(path string) (map[string]Bench, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var file File
	if err := dec.Decode(&file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(file.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks to check against", path)
	}
	return file.Benchmarks, nil
}
