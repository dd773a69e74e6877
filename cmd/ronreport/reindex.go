package main

// -reindex backfills a result store from a sweep output directory's
// persisted artifacts: every manifest cell with a restorable snapshot
// becomes a cell row, and every group whose replicas all restored
// becomes a merged group row — so pre-store sweep outputs (and
// -merge-only reruns, which bypass the live sinks) become queryable
// without recomputing anything. The cells come from the walk every
// offline tool shares (SweepManifest.RestoredGroups): restored from the
// snapshots' own recorded metadata, not the manifest's grid
// re-expansion, and a cell that does not restore in this binary (an
// axis it does not link) is reported and counted missing. Reindexing is
// idempotent: rows already in the segment (by identity) are skipped.

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"strings"

	"repro/experiment"
	"repro/internal/core"
	"repro/internal/resultstore"
)

func reindexStore(w io.Writer, root, segPath string) error {
	m, err := experiment.LoadManifest(root)
	if err != nil {
		return err
	}
	existing := map[string]bool{}
	if seg, err := resultstore.ReadSegment(segPath); err == nil {
		for i := range seg.Rows {
			existing[seg.Rows[i].Identity()] = true
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	st, err := resultstore.Open(segPath)
	if err != nil {
		return err
	}
	defer st.Close()

	cellsAdded, groupsAdded, missing := 0, 0, 0
	for g, cells := range m.RestoredGroups(root) {
		dataset := strings.ToLower(g.Dataset)
		results := make([]*core.Result, 0, len(cells))
		for replica, rc := range cells {
			c := g.Cells[replica]
			if rc.Err != nil {
				switch {
				case rc.Snap != nil:
					fmt.Fprintf(w, "(cell %s: snapshot does not restore: %v)\n", c.Name, rc.Err)
				case !errors.Is(rc.Err, fs.ErrNotExist):
					fmt.Fprintf(w, "(cell %s: skipping snapshot: %v)\n", c.Name, rc.Err)
				}
				missing++
				continue
			}
			results = append(results, rc.Res)
			if existing["cell:"+c.Name] {
				continue
			}
			row := core.StoreRow(resultstore.KindCell, c.Name, g.Name, dataset,
				g.Axes, replica, 1, c.Seed, c.Snapshot, rc.Res)
			if err := st.Append(row); err != nil {
				return err
			}
			cellsAdded++
		}
		if len(results) < len(cells) || len(results) == 0 || existing["group:"+g.Name] {
			continue
		}
		merged, err := core.MergeResults(results)
		if err != nil {
			return fmt.Errorf("group %s: %w", g.Name, err)
		}
		row := core.StoreRow(resultstore.KindGroup, g.Name, g.Name, dataset,
			g.Axes, -1, len(results), 0, "", merged)
		if err := st.Append(row); err != nil {
			return err
		}
		groupsAdded++
	}
	fmt.Fprintf(w, "reindex: added %d cell and %d group rows (%d cells missing); store now holds %d rows\n",
		cellsAdded, groupsAdded, missing, st.Rows())
	return nil
}
