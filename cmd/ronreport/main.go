// Command ronreport post-processes probe trace logs the way the paper's
// central monitoring machine did (§4.1): it merges per-node binary trace
// files, matches receives to sends within one hour, filters probes aimed
// at failed hosts (90 s send silence), and prints the Table 5 loss
// statistics for the methods found in the logs. With -dataset the mesh,
// the methods and the tables are the dataset's, rendered as a campaign
// of it renders them (Table 5's inferred single-path rows, RONwide as
// Table 7): the trace of a ronsim -dataset ronnarrow run prints the
// Tables 5 and 6 that run printed.
//
// Usage:
//
//	ronreport -hosts 30 -methods "loss,direct rand,lat loss" node0.trc node1.trc ...
//	ronreport -dataset ronnarrow f.trc
//
// With -sweep, ronreport instead reads a ronsim sweep output directory:
// it re-expands the grid its sweep.json manifest records and folds each
// grid point's replicas in replica order, printing the same tables the
// sweep wrote under merged/. Cells with persisted snapshots (written by
// every ronsim -sweep -out run) are read through the admission check a
// resumed sweep uses; cells with no snapshot file but a trace file are
// rebuilt through the §4.1 matching pipeline under the cell's own
// configuration. Cells with neither, or with a snapshot the check
// refuses — e.g. shards still running on another machine — are
// reported as missing:
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

	_ "repro/cmd/internal/tablerefresh" // reads sweeps over the tablerefresh axis
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
		dataset  = fs.String("dataset", "", "with trace files: take the mesh, methods and tables from this dataset (ron2003, ronwide, ronnarrow) instead of -hosts and -methods")
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
		err = reportTraces(stdout, splitMethods(*methods), *hosts, *dataset, fs.Args())
	}
	if err != nil {
		fmt.Fprintln(stderr, "ronreport:", err)
		return 1
	}
	return 0
}

// reportTraces prints the tables of the probe trace files given on the
// command line: with a dataset, the sections of core.StoreTables for a
// campaign of it; without, Tables 5 and 6 over names and hosts.
func reportTraces(w io.Writer, names []string, hosts int, dataset string, paths []string) error {
	var res *core.Result
	if dataset != "" {
		d, err := core.ParseDataset(dataset)
		if err != nil {
			return err
		}
		// A one-cell grid of the dataset has a campaign's shape: its
		// testbed, methods and latency semantics.
		s, err := core.NewSweep(core.SweepSpec{Datasets: []core.Dataset{d}, Days: 1, Replicas: 1})
		if err != nil {
			return err
		}
		res = s.EmptyResult(0)
	} else {
		// -hosts sizes the matcher's and aggregator's per-host tables.
		if err := route.ValidateMeshSize(hosts); err != nil {
			return err
		}
		res = &core.Result{Agg: analysis.NewAggregator(names, hosts)}
	}
	total, nlogs, matched, err := aggregateTraces(w, res.Agg, paths)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "merged %d records from %d logs\n", total, nlogs)
	fmt.Fprintf(w, "matched %d probe observations\n\n", matched)
	tables := resultstore.Tables{Overview: res.Agg.Table5(), Hours: res.Agg.HighLossHours()}
	if dataset != "" {
		tables = core.StoreTables(res)
	}
	printSections(w, tables)
	return nil
}

// aggregateTraces reads trace files, matches sends to receives over
// agg's hosts, and folds the observations into agg. Observations whose
// method id falls outside agg's methods are dropped (and reported).
func aggregateTraces(w io.Writer, agg *analysis.Aggregator, paths []string) (records, logs, matched int, err error) {
	logSets := make([][]trace.Record, 0, len(paths))
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return 0, 0, 0, err
		}
		recs, err := trace.ReadAll(f)
		f.Close()
		if err != nil {
			return 0, 0, 0, fmt.Errorf("%s: %w", path, err)
		}
		logSets = append(logSets, recs)
		records += len(recs)
	}
	merged := trace.Merge(logSets...)
	obs := trace.Match(merged, agg.Hosts())

	methods := len(agg.Methods())
	skipped := 0
	for _, o := range obs {
		if o.Method >= methods {
			skipped++
			continue
		}
		agg.Observe(o)
	}
	agg.Flush()
	if skipped > 0 {
		fmt.Fprintf(w, "(skipped %d observations with method ids beyond the %d known methods)\n",
			skipped, methods)
	}
	return records, len(logSets), len(obs), nil
}

// reportSweep rebuilds each grid point of the sweep in dir from its
// replicate artifacts and prints its tables: the sections of
// core.StoreTables, so each equals the sweep's
// merged/<group>/<dataset>-<section>.txt. It re-expands the manifest's
// grid (an axis this binary does not register is an error), and per
// cell reads the snapshot through the admission check a resumed sweep
// uses; when the cell has no snapshot file, replays its trace file
// under the cell's own Config; and otherwise — no trace, or a snapshot
// the check refuses — counts the cell as missing, the normal state of
// a sharded sweep whose other shards have not been copied in yet.
// Replicas fold in replica order, as the sweep's own merge does. It
// keeps its own read rather than a run's reload (Sweep.Start, as
// -merge-only and -reindex use) because it merges partial grid points
// and folds in replayed traces, which a run never does.
func reportSweep(w io.Writer, dir string) error {
	m, err := experiment.LoadManifest(dir)
	if err != nil {
		return err
	}
	s, err := m.Sweep(nil, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sweep manifest: %d grid points\n\n", len(m.Groups))
	reported := 0
	resolve := func(rel string) string {
		if filepath.IsAbs(rel) {
			return rel
		}
		return filepath.Join(dir, rel)
	}
	for g := range m.Groups {
		mg := &m.Groups[g]
		var results []*core.Result
		fromSnap, fromTrace := 0, 0
		var missing []string
		for k, i := range s.GroupCells(g) {
			c := mg.Cells[k]
			res, err := s.ReadCell(i, dir)
			switch {
			case err == nil:
				fromSnap++
			case !errors.Is(err, fs.ErrNotExist):
				// A refused snapshot, corrupt or from another grid (another
				// seed or -days), leaves the cell's provenance unproven,
				// and its trace file shares it (traces carry no seed to
				// check): falling back would risk mixing grids, so the
				// cell counts as missing.
				fmt.Fprintf(w, "(cell %s: %v; not trusting its trace either)\n", c.Name, err)
				missing = append(missing, c.Name)
				continue
			case c.Trace == "":
				missing = append(missing, c.Name)
				continue
			default:
				res = s.EmptyResult(i)
				if _, _, _, err := aggregateTraces(w, res.Agg, []string{resolve(c.Trace)}); err != nil {
					return fmt.Errorf("cell %s: %w", c.Name, err)
				}
				fromTrace++
			}
			results = append(results, res)
		}
		if len(results) == 0 {
			fmt.Fprintf(w, "=== %s: no snapshots or traces found (run the shard, or rerun ronsim -sweep with -out/-trace) ===\n\n", mg.Name)
			continue
		}
		merged, err := core.MergeResults(results)
		if err != nil {
			return fmt.Errorf("group %s: %w", mg.Name, err)
		}
		reported++
		src := fmt.Sprintf("%d from snapshots, %d from traces", fromSnap, fromTrace)
		if len(missing) > 0 {
			src += fmt.Sprintf("; MISSING %s", strings.Join(missing, ", "))
		}
		fmt.Fprintf(w, "=== %s: %s, %d hosts, %d replicas combined (%s) ===\n",
			mg.Name, mg.Dataset, mg.Hosts, len(results), src)
		printSections(w, core.StoreTables(merged))
	}
	if reported == 0 {
		return fmt.Errorf("no grid point had snapshots or traces under %s", dir)
	}
	return nil
}

// printSections prints each table section under its title, followed by
// a blank line; the text between a title and that line is the
// section's file under merged/ byte for byte.
func printSections(w io.Writer, t resultstore.Tables) {
	for _, s := range t.Sections() {
		fmt.Fprintf(w, "%s\n%s\n", s.Title, s.Text)
	}
}

func splitMethods(s string) []string {
	out := experiment.SplitList(s)
	if len(out) == 0 {
		out = []string{"direct"}
	}
	return out
}
