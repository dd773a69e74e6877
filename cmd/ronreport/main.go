// Command ronreport post-processes probe trace logs the way the paper's
// central monitoring machine did (§4.1): it merges per-node binary trace
// files, matches receives to sends within one hour, filters probes aimed
// at failed hosts (90 s send silence), and prints the Table 5 loss
// statistics for the methods found in the logs.
//
// Usage:
//
//	ronreport -hosts 30 -methods "loss,direct rand,lat loss" node0.trc node1.trc ...
//
// With -sweep, ronreport instead reads a ronsim sweep output directory
// (its sweep.json manifest) and combines each grid point's replicas via
// aggregator merging. Cells with persisted snapshots (written by every
// ronsim -sweep -out run) are restored exactly; cells with only trace
// files are rebuilt through the §4.1 matching pipeline. Grid points with
// neither — e.g. shards still running on another machine — are reported
// as missing:
//
//	ronsim -sweep -replicas 4 -out results/ -trace results/traces
//	ronreport -sweep results/
//
// With -store, ronreport is a query engine over the sweep's columnar
// result store (results.seg, written by every persisting sweep and
// backfillable with -reindex): -query filters rows by axis predicates,
// -group-by/-metrics/-quantile aggregate metric columns, -render
// re-renders any paper table byte-identically to the files under
// merged/, and -drill restores backing snapshots for CDF-level answers:
//
//	ronreport -store results/ -reindex
//	ronreport -store results/ -query "kind=group,scenario=outage" -render resilience
//	ronreport -store results/ -query kind=cell -group-by redundancy \
//	    -metrics wl.mp.losspct -quantile 0.95
//	ronreport -store results/ -query "kind=cell,group=ronnarrow" -drill "win20:direct"
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"repro/experiment"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/resultstore"
	"repro/internal/route"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is ronreport with its arguments and output streams passed in; it
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ronreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		hosts    = fs.Int("hosts", 30, "number of hosts in the mesh")
		methods  = fs.String("methods", "direct", "comma-separated method names, indexed by the Method field in the logs")
		sweepDir = fs.String("sweep", "", "read a ronsim sweep manifest (sweep.json) from this directory and combine its per-cell traces")
		store    = fs.String("store", "", "query the columnar result store of this sweep output directory (or a results.seg path)")
		reindex  = fs.Bool("reindex", false, "with -store: backfill the store from the directory's manifest and cell snapshots")
		query    = fs.String("query", "", "with -store: comma-separated field=glob predicates (kind, name, group, dataset, replica, seed, or any axis)")
		groupBy  = fs.String("group-by", "", "with -store -metrics: bucket selected rows by this field")
		metrics  = fs.String("metrics", "", "with -store: comma-separated metric columns to print")
		quantile = fs.Float64("quantile", -1, "with -store -metrics/-drill: also report this quantile (0..1)")
		render   = fs.String("render", "", "with -store: re-render a table from each selected row (overview, table6, workload, resilience)")
		drill    = fs.String("drill", "", "with -store: snapshot-backed CDF drill-down (pathloss, win20:<method>, clp:<method>, latency:<method>)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() == 0 && *store == "" && *sweepDir == "" {
		fmt.Fprintln(stderr, "ronreport: no trace files given")
		return 2
	}
	var err error
	switch {
	case *quantile != -1 && !(*quantile >= 0 && *quantile <= 1):
		err = fmt.Errorf("-quantile %v: want a value in [0, 1]", *quantile)
	case *store != "":
		q := storeQuery{
			reindex:  *reindex,
			query:    *query,
			groupBy:  *groupBy,
			metrics:  *metrics,
			quantile: *quantile,
			render:   *render,
			drill:    *drill,
		}
		q.root, q.segPath = resolveStore(*store)
		err = runStore(stdout, q)
	case *sweepDir != "":
		err = reportSweep(stdout, *sweepDir)
	default:
		err = reportTraces(stdout, splitMethods(*methods), *hosts, fs.Args())
	}
	if err != nil {
		fmt.Fprintln(stderr, "ronreport:", err)
		return 1
	}
	return 0
}

// reportTraces prints the tables of the probe trace files given on the
// command line.
func reportTraces(w io.Writer, names []string, hosts int, paths []string) error {
	// -hosts sizes the matcher's and aggregator's per-host tables.
	if err := route.ValidateMeshSize(hosts); err != nil {
		return err
	}
	agg, total, nlogs, matched, err := aggregateTraces(w, names, hosts, paths)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "merged %d records from %d logs\n", total, nlogs)
	fmt.Fprintf(w, "matched %d probe observations\n\n", matched)
	printTables(w, agg)
	return nil
}

// aggregateTraces reads trace files, matches sends to receives, and folds
// the observations into a fresh aggregator. Observations whose method id
// falls outside the provided name list are dropped (and reported).
func aggregateTraces(w io.Writer, names []string, hosts int, paths []string) (agg *analysis.Aggregator, records, logs, matched int, err error) {
	logSets := make([][]trace.Record, 0, len(paths))
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		recs, err := trace.ReadAll(f)
		f.Close()
		if err != nil {
			return nil, 0, 0, 0, fmt.Errorf("%s: %w", path, err)
		}
		logSets = append(logSets, recs)
		records += len(recs)
	}
	merged := trace.Merge(logSets...)
	obs := trace.Match(merged, hosts)

	agg = analysis.NewAggregator(names, hosts)
	skipped := 0
	for _, o := range obs {
		if o.Method >= len(names) {
			skipped++
			continue
		}
		agg.Observe(o)
	}
	agg.Flush()
	if skipped > 0 {
		fmt.Fprintf(w, "(skipped %d observations with method ids beyond the %d known methods)\n",
			skipped, len(names))
	}
	return agg, records, len(logSets), len(obs), nil
}

// reportSweep rebuilds each sweep grid point from its replicate
// artifacts and prints the combined tables, mirroring what ronsim's
// in-process merge produced. Per cell it prefers the persisted snapshot
// (exact aggregator state), falls back to the trace file (rebuilt
// through send/receive matching), and otherwise counts the cell as
// missing — the normal state of a sharded sweep whose other shards have
// not been copied in yet.
func reportSweep(w io.Writer, dir string) error {
	m, err := experiment.LoadManifest(dir)
	if err != nil {
		return err
	}
	// A trace fallback sizes the matcher's and aggregator's tables from
	// the manifest's group fields, so refuse any the file got wrong
	// before a trace is read.
	for _, g := range m.Groups {
		if err := route.ValidateMeshSize(g.Hosts); err != nil {
			return fmt.Errorf("group %s: %w", g.Name, err)
		}
		if len(g.Methods) == 0 {
			return fmt.Errorf("group %s: no methods", g.Name)
		}
	}
	fmt.Fprintf(w, "sweep manifest: %d grid points\n\n", len(m.Groups))
	reported := 0
	resolve := func(rel string) string {
		if filepath.IsAbs(rel) {
			return rel
		}
		return filepath.Join(dir, rel)
	}
	for g, cells := range m.RestoredGroups(dir) {
		var combined *analysis.Aggregator
		fromSnap, fromTrace := 0, 0
		var missing []string
		merge := func(agg *analysis.Aggregator, name string) error {
			if combined == nil {
				combined = agg
				return nil
			}
			if err := combined.Merge(agg); err != nil {
				return fmt.Errorf("cell %s: %w", name, err)
			}
			return nil
		}
		for ci, rc := range cells {
			c := g.Cells[ci]
			switch {
			case rc.Snap != nil:
				// The tables need only the aggregator, so a snapshot this
				// binary cannot restore (an axis it does not link) still
				// counts.
				if err := merge(rc.Snap.Aggregator(), c.Name); err != nil {
					return err
				}
				fromSnap++
				continue
			case errors.Is(rc.Err, core.ErrSnapshotMismatch):
				// Debris from a rerun with another seed. The cell's
				// trace file shares that run's provenance (traces
				// carry no seed to check), so falling back would
				// silently mix grids; count the cell as missing.
				fmt.Fprintf(w, "(cell %s: %v; not trusting its trace either)\n", c.Name, rc.Err)
				missing = append(missing, c.Name)
				continue
			case !errors.Is(rc.Err, fs.ErrNotExist):
				fmt.Fprintf(w, "(cell %s: unreadable snapshot: %v; falling back to trace)\n",
					c.Name, rc.Err)
			}
			if c.Trace != "" {
				agg, _, _, _, err := aggregateTraces(w, g.Methods, g.Hosts, []string{resolve(c.Trace)})
				if err != nil {
					return fmt.Errorf("cell %s: %w", c.Name, err)
				}
				if err := merge(agg, c.Name); err != nil {
					return err
				}
				fromTrace++
				continue
			}
			missing = append(missing, c.Name)
		}
		if combined == nil {
			fmt.Fprintf(w, "=== %s: no snapshots or traces found (run the shard, or rerun ronsim -sweep with -out/-trace) ===\n\n", g.Name)
			continue
		}
		reported++
		src := fmt.Sprintf("%d from snapshots, %d from traces", fromSnap, fromTrace)
		if len(missing) > 0 {
			src += fmt.Sprintf("; MISSING %s", strings.Join(missing, ", "))
		}
		fmt.Fprintf(w, "=== %s: %s, %d hosts, %d replicas combined (%s) ===\n",
			g.Name, g.Dataset, g.Hosts, fromSnap+fromTrace, src)
		printTables(w, combined)
	}
	if reported == 0 {
		return fmt.Errorf("no grid point had snapshots or traces under %s", dir)
	}
	return nil
}

func printTables(w io.Writer, agg *analysis.Aggregator) {
	// Every caller hands over a flushed aggregator; Flush is idempotent,
	// so re-flushing here keeps the Table 6 precondition local.
	agg.Flush()
	t := resultstore.Tables{Overview: agg.Table5(), Hours: agg.HighLossHours()}
	// Workload-enabled cells carry delivered-frame accounting in their
	// snapshots; render it wherever it survived the merge, under its
	// title (Tables 5 and 6 print bare).
	if ws := agg.Workload(); ws != nil && ws.HasData() {
		t.Workload = ws.Table()
	}
	for i, s := range t.Sections() {
		if i > 1 {
			fmt.Fprintln(w, s.Title)
		}
		fmt.Fprintln(w, s.Text)
	}
}

func splitMethods(s string) []string {
	out := experiment.SplitList(s)
	if len(out) == 0 {
		out = []string{"direct"}
	}
	return out
}
