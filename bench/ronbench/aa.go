package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// aaRun is what -aa keeps of one child run.
type aaRun struct {
	metrics map[string]float64
	digest  string
}

// runChild runs one workload in its own process — peak RSS and the
// allocator's state belong to a process — and parses its report.
func runChild(exe, workload string, seed uint64, seconds float64, work string) (*aaRun, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-work", work)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w\n%s", workload, err, out.String())
	}
	r := &aaRun{metrics: map[string]float64{}}
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) >= 3 && f[0] == "metric":
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad metric line %q", workload, sc.Text())
			}
			r.metrics[f[1]] = v
		case len(f) == 2 && f[0] == "digest":
			r.digest = f[1]
		}
	}
	return r, sc.Err()
}

// aaRuns is how many runs of each workload make one of -aa's two sets.
// Single runs on a shared box differ by more than any bound worth
// having; medians of five interleaved runs do not.
const aaRuns = 5

// runAA measures the whole suite in two sets of aaRuns runs per workload
// and compares every end-to-end metric of every workload, set median
// against set median, with its own bound. The sets are interleaved run
// by run, and which set goes first alternates, so a drift of the box
// over the minutes this takes lands on both alike. Two sets from one
// commit that disagree by more than a bound mean the bound (or the box)
// cannot support a regression verdict. Exact metrics and digests must
// be identical in all runs of both sets.
func runAA(w io.Writer, seed uint64, seconds float64, work string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ronbench:", err)
		return 2
	}
	fmt.Fprintf(w, "%s\n", fingerprint())
	fmt.Fprintf(w, "# -aa: two sets of %d runs per workload, interleaved, one process per run; seed %d, %g s timed per run; values are set medians\n",
		aaRuns, seed, seconds)
	failures := 0
	fmt.Fprintf(w, "%-22s %-18s %16s %16s %9s %7s  %s\n", "workload", "metric", "first", "second", "diff", "bound", "verdict")
	for _, name := range workloadNames {
		var sets [2][]*aaRun
		for i := 0; i < aaRuns; i++ {
			for k := 0; k < 2; k++ {
				set := (i + k) % 2
				r, err := runChild(exe, name, seed, seconds, work)
				if err != nil {
					fmt.Fprintln(os.Stderr, "ronbench:", err)
					return 2
				}
				sets[set] = append(sets[set], r)
			}
		}
		all := append(append([]*aaRun(nil), sets[0]...), sets[1]...)
		for _, d := range endToEndDefs {
			var vals [2][]float64
			for s, runs := range sets {
				for _, r := range runs {
					if v, ok := r.metrics[d.Name]; ok {
						vals[s] = append(vals[s], v)
					}
				}
			}
			reported := len(vals[0]) + len(vals[1])
			if reported == 0 {
				continue // not one of this workload's metrics
			}
			va, vb := median(vals[0]), median(vals[1])
			verdict, diff, bound := "ok", "", ""
			switch {
			case reported != len(all):
				// Which metrics a workload reports does not depend on the
				// box; one that comes and goes is a defect.
				verdict = fmt.Sprintf("FAIL (in %d of %d runs)", reported, len(all))
			case d.Bound == exact:
				bound = "exact"
				for _, v := range append(vals[0], vals[1]...) {
					if v != va {
						verdict = "FAIL"
					}
				}
			default:
				diff = fmt.Sprintf("%8.2f%%", 100*relDiff(va, vb))
				bound = fmt.Sprintf("%6.0f%%", 100*d.Bound)
				if relDiff(va, vb) > d.Bound && math.Abs(va-vb) > d.floor {
					verdict = "FAIL"
				}
			}
			if strings.HasPrefix(verdict, "FAIL") {
				failures++
			}
			fmt.Fprintf(w, "%-22s %-18s %16.6f %16.6f %9s %7s  %s\n", name, d.Name, va, vb, diff, bound, verdict)
		}
		verdict := "ok"
		for _, r := range all {
			if r.digest != all[0].digest || r.digest == "" {
				verdict = "FAIL"
			}
		}
		if verdict != "ok" {
			failures++
		}
		fmt.Fprintf(w, "%-22s %-18s %16.16s %16.16s %9s %7s  %s\n", name, "digest", sets[0][0].digest, sets[1][0].digest, "", "exact", verdict)
	}
	if failures > 0 {
		fmt.Fprintf(w, "# -aa: %d comparisons outside their bound\n", failures)
		return 1
	}
	fmt.Fprintf(w, "# -aa: every end-to-end metric of every workload agrees within its bound\n")
	return 0
}
