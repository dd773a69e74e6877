package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// minReps is the floor on timed repetitions; a run goes past its
// -seconds budget rather than below it.
const minReps = 5

// env is what one workload run gets from the command line.
type env struct {
	seed    uint64
	seconds float64 // timed-region budget
	tiny    bool    // smoke-test sizes, set only by the package's tests
	work    string  // scratch directory inside the checkout
	spans   string  // span file path (traced runs)
	log     io.Writer
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.log, format, args...) }

// setupPasses is how many times a workload sets up in one run;
// setup_s is the median.
func (e *env) setupPasses(full int) int {
	if e.tiny {
		return 1
	}
	return full
}

// meter brackets a timed region: wall clock, process CPU, and bytes
// allocated.
type meter struct {
	t0     time.Time
	cpu0   time.Duration
	alloc0 float64
}

func startMeter() meter {
	m := meter{alloc0: totalAllocMB(), cpu0: cpuTime()}
	m.t0 = time.Now()
	return m
}

func (m meter) stop() measured {
	wall := time.Since(m.t0)
	return measured{wall: wall, cpu: cpuTime() - m.cpu0, allocMB: totalAllocMB() - m.alloc0}
}

type measured struct {
	wall, cpu time.Duration
	allocMB   float64
}

// repResult is one timed repetition as a workload reports it.
type repResult struct {
	measured
	ops     int       // operations completed (cells or queries)
	failed  int       // operations that errored, were re-dispatched, or answered wrongly
	probes  int64     // RONProbes+MeasureProbes simulated (0 where none)
	samples []float64 // per-operation seconds
	disk    int64     // bytes under the output directory
	digest  string    // output digest; "" when the repetition has none
	// opCost is the CPU and allocation charged to the operations, where
	// that is less than the whole repetition's (store_query: the query
	// phase alone). Zero means the whole repetition.
	opCost measured
	extra  map[string]float64
}

// result is what a run reports: its metrics by name and the correctness
// verdict.
type result struct {
	workload  string
	trace     bool
	metrics   map[string]float64
	attempted int
	failed    int
	correct   bool
	digest    string
	notes     []string
}

func newResult(workload string, trace bool) *result {
	return &result{workload: workload, trace: trace, correct: true, metrics: map[string]float64{}}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a correctness failure; the run still reports, then
// exits non-zero.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.note("INCORRECT: "+format, args...)
}

// workload is the untraced, end-to-end half of a workload.
type workload interface {
	// setupCount is how many set-up passes a run makes; reps is the floor
	// on its timed repetitions.
	setupCount() int
	reps() int
	// setup is one full set-up pass — temp dirs, grid expansion, warm-up
	// repetition, cold cell, segment synthesis: whatever precedes the
	// timed region — and returns how long the pass took. Checking the
	// pass's outputs is not set-up and is left out of that time.
	setup() (time.Duration, error)
	// rep is one timed repetition; what it does after stopping its meter
	// (digests, comparisons) is untimed.
	rep(i int) (repResult, error)
	// finish folds workload-specific metrics and verdicts into the
	// result after the last repetition.
	finish(res *result, reps []repResult)
	close()
}

// runEndToEnd drives a workload's closed loop: set-up passes, then
// timed repetitions until both the workload's floor and the time budget
// are met.
func runEndToEnd(e *env, name string, w workload) (*result, error) {
	defer w.close()
	res := newResult(name, false)

	var setups []float64
	for p := 0; p < w.setupCount(); p++ {
		d, err := w.setup()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up pass %d: %w", name, p, err)
		}
		setups = append(setups, d.Seconds())
	}
	e.logf("# set-up: %d passes, each ending in the untimed warm-up (repetition 0); seconds %v\n",
		len(setups), fmtFloats(setups))
	// Start the timed region from a collected heap so a set-up pass's
	// garbage is not charged to repetition 1.
	runtime.GC()

	var reps []repResult
	floor, budget := w.reps(), e.seconds
	if e.tiny {
		floor, budget = 2, 0
	}
	start := time.Now()
	for i := 1; len(reps) < floor || time.Since(start).Seconds() < budget; i++ {
		r, err := w.rep(i)
		if err != nil {
			return nil, fmt.Errorf("%s: repetition %d: %w", name, i, err)
		}
		reps = append(reps, r)
		// A repetition that left garbage is collected before the next
		// starts, so each is timed from the same heap.
		if r.allocMB > 32 {
			runtime.GC()
		}
	}
	// The peak belongs to set-up and the timed repetitions; finish may
	// run reference computations of its own.
	peak := peakRSSMB()

	var walls, cpuPerOp, allocPerOp []float64
	samples := 0
	digest := ""
	for i, r := range reps {
		res.attempted += r.ops
		res.failed += r.failed
		walls = append(walls, r.wall.Seconds())
		cost := r.opCost
		if cost == (measured{}) {
			cost = r.measured
		}
		if r.ops > 0 {
			cpuPerOp = append(cpuPerOp, cost.cpu.Seconds()*1e3/float64(r.ops))
			allocPerOp = append(allocPerOp, cost.allocMB/float64(r.ops))
		}
		samples += len(r.samples)
		if r.digest != "" {
			if digest == "" {
				digest = r.digest
			} else if r.digest != digest {
				res.fail("repetition %d digest %s differs from repetition 1's %s", i+1, r.digest, digest)
				res.failed += r.ops
			}
		}
	}
	res.digest = digest
	res.note("repetition walls (s): %s", fmtFloats(walls))
	res.note("repetition cpu per op (ms): %s", fmtFloats(cpuPerOp))
	res.metrics["setup_s"] = median(setups)
	res.metrics["wall_s"] = median(walls)
	res.metrics["cpu_ms_per_cell"] = median(cpuPerOp)
	res.metrics["alloc_mb_per_op"] = median(allocPerOp)
	res.metrics["peak_rss_mb"] = peak
	res.note("%d timed repetitions after the warm-up; %d per-operation samples pooled across them",
		len(reps), samples)
	w.finish(res, reps)
	if res.failed > 0 {
		res.correct = false
	}
	return res, nil
}

func fmtFloats(vals []float64) string {
	s := "["
	for i, v := range vals {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", v)
	}
	return s + "]"
}

// tailSamples is the fewest samples a p95 is reported from: ten beyond
// the percentile.
const tailSamples = 200

// tailMetric reports the p95 of samples, in ms, under name. The sweeps,
// the fleet and store_query size their repetition floor so that a run
// always pools tailSamples; the bigworld workloads, at one cell per
// repetition, never do and report a median only.
func tailMetric(res *result, name string, samples []float64) {
	if len(samples) >= tailSamples {
		res.metrics[name] = percentile(samples, 95) * 1e3
	} else {
		res.note("%s not reported: %d samples, a p95 needs %d", name, len(samples), tailSamples)
	}
}

// failedPct is failed operations over attempted, in percent.
func failedPct(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return 100 * float64(failed) / float64(attempted)
}
