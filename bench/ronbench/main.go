// Command ronbench is the repository's end-to-end benchmark: six named
// workloads, each run in its own process as a closed loop with two
// clients, reporting end-to-end metrics (tracing off) or per-layer
// metrics (a separate -trace run that times the benchmark's own calls
// into each layer). See README.md in this directory.
//
//	go run ./bench/ronbench -workload paper_sweep -seed 1
//	go run ./bench/ronbench -workload fleet_drain -trace 1
//	go run ./bench/ronbench -aa
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything above it is the
// human-readable report. The exit code is non-zero when any output was
// wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
		seed    = flag.Uint64("seed", 1, "workload seed; every input derives from it")
		seconds = flag.Float64("seconds", 10, "timed-region budget in seconds (at least 5 repetitions run regardless)")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: untraced run reporting end-to-end metrics")
		aa      = flag.Bool("aa", false, "measure the whole suite in two interleaved sets of runs and fail if any end-to-end metric's set medians differ by more than its bound")
		work    = flag.String("work", filepath.Join(".bench_build", "ronbench"), "scratch directory (created, kept inside the checkout)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	if *aa {
		os.Exit(runAA(os.Stdout, *seed, *seconds, *work))
	}
	e := &env{
		seed:    *seed,
		seconds: *seconds,
		work:    filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid())),
		spans:   filepath.Join(*work, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed)),
		log:     os.Stdout,
	}
	os.Exit(runOne(e, *name, *trace != 0))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ronbench: "+format+"\n", args...)
	os.Exit(2)
}

// runOne runs one workload and prints its report; the return value is
// the process exit code.
func runOne(e *env, name string, traced bool) int {
	e.logf("%s\n", fingerprint())
	e.logf("# load: closed loop, one process, %d clients (compute goroutines or fleet workers, one HTTP connection each on 127.0.0.1)\n", clients)
	e.logf("# repetition 0 is the untimed warm-up (part of set-up); repetitions 1..N are timed and every timing is their median\n")
	e.logf("# workload=%s seed=%d seconds=%g trace=%v\n", name, e.seed, e.seconds, traced)
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "ronbench:", err)
		return 2
	}
	defer os.RemoveAll(e.work)

	res, err := runWorkload(e, name, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ronbench:", err)
		return 2
	}
	checkPinnedDigest(e, res)
	report(e.log, res)
	if !res.correct {
		return 1
	}
	return 0
}

// runWorkload runs the named workload once, traced or not.
func runWorkload(e *env, name string, traced bool) (*result, error) {
	if traced {
		return runTraced(e, name)
	}
	w, err := newWorkload(e, name)
	if err != nil {
		return nil, err
	}
	return runEndToEnd(e, name, w)
}

// newWorkload builds the untraced half of the named workload.
func newWorkload(e *env, name string) (workload, error) {
	dirs := tempDirs{root: e.work}
	switch name {
	case "paper_sweep", "stream_scenario_sweep":
		return &sweepWorkload{e: e, g: sizedGrid(e, name), dirs: dirs}, nil
	case "fleet_drain":
		return &fleetWorkload{e: e, g: sizedGrid(e, name), dirs: dirs}, nil
	case "bigworld_landmark", "bigworld_mesh":
		return newBigworld(e, name), nil
	case "store_query":
		return newStoreQuery(e, dirs), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// runTraced dispatches the -trace run of the named workload.
func runTraced(e *env, name string) (*result, error) {
	switch name {
	case "paper_sweep", "stream_scenario_sweep":
		return traceSweep(e, name)
	case "fleet_drain":
		return traceFleet(e, name)
	case "bigworld_landmark", "bigworld_mesh":
		return traceBigworld(e, name)
	case "store_query":
		return traceStoreQuery(e, name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// report prints the human-readable metrics and, last, the JSON line
// the driver parses: the gated end-to-end metrics of an untraced run,
// the per-layer metrics of a traced one.
func report(w io.Writer, res *result) {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]jsonMetric{}}
	printed := map[string]bool{}
	line := func(d metricDef, v float64) {
		printed[d.Name] = true
		fmt.Fprintf(w, "metric %-32s %16.6f %s\n", d.Name, v, d.Unit)
	}
	if res.trace {
		// A layer the workload does not drive reads 0.
		for _, d := range layerDefs {
			out.Metrics[d.Name] = jsonMetric{res.metrics[d.Name], d.Unit}
			line(d, res.metrics[d.Name])
		}
	} else {
		res.metrics["failed_ops_pct"] = failedPct(res.failed, res.attempted)
		for _, d := range endToEndDefs {
			v, ok := res.metrics[d.Name]
			if d.gated {
				out.Metrics[d.Name] = jsonMetric{v, d.Unit}
			}
			if ok || d.gated {
				line(d.metricDef, v)
			}
		}
	}
	// Any metric a workload set that the tables do not declare is a bug in
	// the workload; surface it rather than drop it silently.
	var stray []string
	for k := range res.metrics {
		if !printed[k] {
			stray = append(stray, k)
		}
	}
	sort.Strings(stray)
	for _, k := range stray {
		fmt.Fprintf(w, "# undeclared metric %s dropped\n", k)
	}
	if res.digest != "" {
		fmt.Fprintf(w, "digest %s\n", res.digest)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintf(w, "# operations: attempted %d, failed %d, correct %v\n", res.attempted, res.failed, res.correct)
	data, err := json.Marshal(out)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Fprintf(w, "%s\n", data)
}
