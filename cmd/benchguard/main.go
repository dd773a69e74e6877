// Command benchguard turns `go test -bench` output into the
// BENCH_campaign.json artifact and enforces the campaign engine's
// performance envelope against the committed baseline.
//
// Emit an artifact from a benchmark run:
//
//	go test -run '^$' -bench 'Campaign|Sweep/serial|...' -benchmem . | benchguard -emit bench.json
//
// Compare a fresh run against the repo's committed baseline (the "post"
// section of BENCH_campaign.json), failing the process on regression:
//
//	benchguard -baseline BENCH_campaign.json -input bench.json
//
// Three checks run per benchmark present in both files:
//
//   - allocs/op may not exceed the baseline beyond a hair of slack
//     (2% + 2 — macro benchmarks pick up ±1 alloc of scheduling noise
//     from the sweep worker pool). Benchmarks named by -zero-allocs
//     must report exactly 0 allocs/op: the hot paths that were made
//     allocation-free stay allocation-free.
//   - B/op is held by the same slack rule on the overlay-size curve
//     (BenchmarkCampaign/n=…), where bytes per cold cell are the
//     big-world memory footprint: per-link and per-path state must stay
//     sized by what a cell uses, not by n².
//   - ns/op may not regress by more than -max-ns-regress (default 10%)
//     on the benchmarks named by -ns-checked. Wall-clock is
//     machine-dependent; the default set is the campaign hot paths,
//     and the threshold assumes the comparison runs on hardware
//     comparable to where the baseline was recorded.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Bench is one benchmark's recorded numbers.
type Bench struct {
	NsPerOp      float64  `json:"ns_per_op"`
	BytesPerOp   *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp  *float64 `json:"allocs_per_op,omitempty"`
	ProbesPerSec *float64 `json:"probes_per_sec,omitempty"`
	CellsPerSec  *float64 `json:"cells_per_sec,omitempty"`
	ScalingEff   *float64 `json:"scaling_eff,omitempty"`
}

// File mirrors BENCH_campaign.json: a baseline section keyed "post",
// or a bare artifact with just "benchmarks".
type File struct {
	Schema     int              `json:"schema,omitempty"`
	Note       string           `json:"note,omitempty"`
	Post       *Section         `json:"post,omitempty"`
	Benchmarks map[string]Bench `json:"benchmarks,omitempty"`
}

// Section is one recorded set of benchmark numbers.
type Section struct {
	Go         string           `json:"go,omitempty"`
	Benchmarks map[string]Bench `json:"benchmarks"`
}

// benchLine matches `go test -bench` result lines, e.g.
//
//	BenchmarkCampaign-8  54  19558482 ns/op  3274283 probes/sec  523024 B/op  2161 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

func parseBenchOutput(r io.Reader) (map[string]Bench, error) {
	out := map[string]Bench{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := m[1]
		fields := strings.Fields(m[2])
		var b Bench
		seen := false
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp = v
				seen = true
			case "B/op":
				b.BytesPerOp = ptr(v)
			case "allocs/op":
				b.AllocsPerOp = ptr(v)
			case "probes/sec":
				b.ProbesPerSec = ptr(v)
			case "cells/sec":
				b.CellsPerSec = ptr(v)
			case "scaling-eff":
				b.ScalingEff = ptr(v)
			}
		}
		if !seen {
			continue
		}
		// -count>1 repeats each benchmark; keep the best (minimum
		// ns/op, maximum probes/sec) sample so scheduling noise in any
		// single run cannot trip the guard. Allocation counts are kept
		// at their minimum too: transient goroutine noise only ever
		// adds allocations.
		if prev, ok := out[name]; ok {
			if prev.NsPerOp < b.NsPerOp {
				b.NsPerOp = prev.NsPerOp
			}
			b.BytesPerOp = minPtr(prev.BytesPerOp, b.BytesPerOp)
			b.AllocsPerOp = minPtr(prev.AllocsPerOp, b.AllocsPerOp)
			b.ProbesPerSec = maxPtr(prev.ProbesPerSec, b.ProbesPerSec)
			b.CellsPerSec = maxPtr(prev.CellsPerSec, b.CellsPerSec)
			b.ScalingEff = maxPtr(prev.ScalingEff, b.ScalingEff)
		}
		out[name] = b
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

func maxPtr(a, b *float64) *float64 {
	if a == nil {
		return b
	}
	if b == nil || *a > *b {
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
func checkMemory(name string, want, got Bench, zeroAllocs bool) []string {
	var failures []string
	if zeroAllocs && got.AllocsPerOp != nil && *got.AllocsPerOp != 0 {
		failures = append(failures, fmt.Sprintf(
			"%s: allocs/op = %.0f, must be 0 (allocation-free hot path)",
			name, *got.AllocsPerOp))
	} else if want.AllocsPerOp != nil && got.AllocsPerOp != nil && overSlack(*want.AllocsPerOp, *got.AllocsPerOp) {
		failures = append(failures, fmt.Sprintf(
			"%s: allocs/op regressed %.0f -> %.0f (allocation counts are machine-independent; this is a real regression)",
			name, *want.AllocsPerOp, *got.AllocsPerOp))
	}
	if strings.HasPrefix(name, "BenchmarkCampaign/n=") && want.BytesPerOp != nil && got.BytesPerOp != nil &&
		overSlack(*want.BytesPerOp, *got.BytesPerOp) {
		failures = append(failures, fmt.Sprintf(
			"%s: B/op regressed %.0f -> %.0f (a cold cell's bytes are its world's footprint; some slab is sized by n² again)",
			name, *want.BytesPerOp, *got.BytesPerOp))
	}
	return failures
}

func main() {
	var (
		emit     = flag.String("emit", "", "write the parsed benchmark numbers as a JSON artifact to this file ('-' for stdout) and exit")
		input    = flag.String("input", "-", "benchmark source: a `go test -bench` output file, or a benchguard JSON artifact (detected by leading '{'); '-' reads stdin")
		baseline = flag.String("baseline", "", "committed BENCH_campaign.json to compare against (its 'post' section)")
		maxNs    = flag.Float64("max-ns-regress", 0.10, "maximum fractional ns/op regression on the -ns-checked benchmarks")
		nsules   = flag.String("ns-checked", "BenchmarkSweep/serial,BenchmarkSweepTurnover,BenchmarkWorkloadCell,BenchmarkCampaign/paper,BenchmarkNetworkSendDirect,BenchmarkAggregatorObserve,BenchmarkSelectorSnapshot", "comma-separated benchmarks whose ns/op regressions fail the guard")
		speedups = flag.String("min-speedup", "BenchmarkCampaign/n=1024:BenchmarkCampaign/n=1024-lm:5", "comma-separated slow:fast:ratio triples: when both benchmarks appear in the input, slow's ns/op must be at least ratio times fast's (the committed curve records 10.8x at n=1024; the gate floor absorbs runner noise)")
		cal      = flag.String("calibrate", "BenchmarkComponentTransit", "benchmark used to normalize machine speed before ns/op checks ('' disables): baseline ns values are scaled by this benchmark's current/baseline ratio, clamped to [0.5,2], so the guard measures hot-path regressions relative to the machine's arithmetic speed instead of raw cross-machine deltas")
		zeroed   = flag.String("zero-allocs", "BenchmarkNetworkSendDirect,BenchmarkNetworkReset/n=1024,BenchmarkProbeWheelStart,BenchmarkAggregatorObserve,BenchmarkSelectorSnapshot,BenchmarkSelectorBestLoss,BenchmarkSelectorRecord/n=512,BenchmarkComponentTransit,BenchmarkStoreAppend", "comma-separated benchmarks that must report exactly 0 allocs/op")
	)
	flag.Parse()

	current, err := readBenches(*input)
	if err != nil {
		fail("reading benchmarks: %v", err)
	}
	if len(current) == 0 {
		fail("no benchmark results found in %s", *input)
	}

	if *emit != "" {
		buf, err := json.MarshalIndent(File{Benchmarks: current}, "", "  ")
		if err != nil {
			fail("%v", err)
		}
		buf = append(buf, '\n')
		if *emit == "-" {
			os.Stdout.Write(buf)
		} else if err := os.WriteFile(*emit, buf, 0o644); err != nil {
			fail("%v", err)
		}
		if *baseline == "" {
			return
		}
	}

	if *baseline == "" {
		fail("nothing to do: pass -emit and/or -baseline")
	}
	base, err := readBaseline(*baseline)
	if err != nil {
		fail("reading baseline: %v", err)
	}

	toSet := func(csv string) map[string]bool {
		set := map[string]bool{}
		for _, n := range strings.Split(csv, ",") {
			if n = strings.TrimSpace(n); n != "" {
				set[n] = true
			}
		}
		return set
	}
	nsChecked := toSet(*nsules)
	zeroAllocs := toSet(*zeroed)

	// Cross-machine normalization: ns/op baselines were recorded on one
	// machine; scale them by the calibration benchmark's observed ratio
	// so the 10% gate compares like with like.
	nsScale := 1.0
	if *cal != "" {
		if b, okB := base[*cal]; okB && b.NsPerOp > 0 {
			if c, okC := current[*cal]; okC && c.NsPerOp > 0 {
				nsScale = c.NsPerOp / b.NsPerOp
				if nsScale < 0.5 {
					nsScale = 0.5
				} else if nsScale > 2 {
					nsScale = 2
				}
				fmt.Printf("benchguard: machine calibration via %s: x%.3f\n", *cal, nsScale)
			}
		}
	}

	var failures []string
	compared := 0
	for name, want := range base {
		got, ok := current[name]
		if !ok {
			continue
		}
		compared++
		failures = append(failures, checkMemory(name, want, got, zeroAllocs[name])...)
		if nsChecked[name] && name != *cal && want.NsPerOp > 0 {
			scaled := want.NsPerOp * nsScale
			if ratio := got.NsPerOp/scaled - 1; ratio > *maxNs {
				failures = append(failures, fmt.Sprintf(
					"%s: ns/op regressed %.0f -> %.0f (+%.1f%% vs calibrated baseline, limit %.0f%%)",
					name, scaled, got.NsPerOp, 100*ratio, 100**maxNs))
			}
		}
	}
	// Relative-speedup gates compare two benchmarks of the same run, so
	// they are machine-independent: the n-scaling claim (landmark probing
	// beats full-mesh at n=1024) is enforced wherever both curves ran.
	for _, spec := range strings.Split(*speedups, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		parts := strings.Split(spec, ":")
		if len(parts) != 3 {
			fail("bad -min-speedup entry %q (want slow:fast:ratio)", spec)
		}
		minRatio, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			fail("bad -min-speedup ratio in %q: %v", spec, err)
		}
		slow, okS := current[parts[0]]
		fast, okF := current[parts[1]]
		if !okS || !okF {
			continue // partial runs skip the gate
		}
		if fast.NsPerOp <= 0 || slow.NsPerOp/fast.NsPerOp < minRatio {
			failures = append(failures, fmt.Sprintf(
				"%s is only %.1fx slower than %s, want >= %.1fx (scaling-law regression)",
				parts[0], slow.NsPerOp/fast.NsPerOp, parts[1], minRatio))
		}
	}
	if compared == 0 {
		fail("no benchmark overlaps between current run and baseline")
	}
	fmt.Printf("benchguard: compared %d benchmarks against baseline\n", compared)
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchguard: FAIL:", f)
		}
		os.Exit(1)
	}
	fmt.Println("benchguard: OK")
}

// readBenches loads benchmark numbers from raw `go test -bench` output
// or from a benchguard/BENCH_campaign.json artifact.
func readBenches(path string) (map[string]Bench, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	trimmed := strings.TrimSpace(string(data))
	if strings.HasPrefix(trimmed, "{") {
		var f File
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, err
		}
		if f.Benchmarks != nil {
			return f.Benchmarks, nil
		}
		if f.Post != nil {
			return f.Post.Benchmarks, nil
		}
		return nil, fmt.Errorf("%s: no benchmarks section", path)
	}
	return parseBenchOutput(strings.NewReader(string(data)))
}

// readBaseline loads the committed baseline's post-optimization section.
func readBaseline(path string) (map[string]Bench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	if f.Post != nil && len(f.Post.Benchmarks) > 0 {
		return f.Post.Benchmarks, nil
	}
	if len(f.Benchmarks) > 0 {
		return f.Benchmarks, nil
	}
	return nil, fmt.Errorf("%s: no post/benchmarks section to compare against", path)
}

func fail(format string, args ...any) {
	fmt.Fprintln(os.Stderr, "benchguard:", fmt.Sprintf(format, args...))
	os.Exit(1)
}
