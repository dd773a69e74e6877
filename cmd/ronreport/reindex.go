package main

// -reindex backfills a result store from a sweep output directory's
// persisted snapshots: every cell whose snapshot passes its admission
// check becomes a cell row, and every group whose replicas all passed
// becomes a merged group row — so pre-store sweep outputs (and
// -merge-only reruns, which bypass the live sinks) become queryable
// without recomputing anything. The cells are the manifest's grid
// re-expanded, each read with Sweep.ReadCell and turned into rows by
// the builders a live sweep appends with (core.CellStoreRow,
// core.GroupStoreRow), so a snapshot of another grid point adds no row
// and a rebuilt store holds the rows the live one did. Reindexing is
// idempotent: rows already in the segment (by identity) are skipped.

import (
	"errors"
	"fmt"
	"io"
	"io/fs"

	"repro/experiment"
	"repro/internal/core"
	"repro/internal/resultstore"
)

func reindexStore(w io.Writer, root, segPath string) error {
	m, err := experiment.LoadManifest(root)
	if err != nil {
		return err
	}
	s, err := m.Sweep()
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

	cells := s.Cells()
	cellsAdded, groupsAdded, missing := 0, 0, 0
	for g := range s.NumGroups() {
		idxs := s.GroupCells(g)
		results := make([]*core.Result, 0, len(idxs))
		for _, i := range idxs {
			c := cells[i]
			res, err := s.ReadCell(i, root)
			if err != nil {
				if !errors.Is(err, fs.ErrNotExist) {
					fmt.Fprintf(w, "(cell %s: skipping snapshot: %v)\n", c.Name(), err)
				}
				missing++
				continue
			}
			results = append(results, res)
			if existing["cell:"+c.Name()] {
				continue
			}
			if err := st.Append(core.CellStoreRow(c, res)); err != nil {
				return err
			}
			cellsAdded++
		}
		first := cells[idxs[0]]
		if len(results) < len(idxs) || existing["group:"+first.GroupName()] {
			continue
		}
		merged, err := core.MergeResults(results)
		if err != nil {
			return fmt.Errorf("group %s: %w", first.GroupName(), err)
		}
		if err := st.Append(core.GroupStoreRow(first, merged)); err != nil {
			return err
		}
		groupsAdded++
	}
	fmt.Fprintf(w, "reindex: added %d cell and %d group rows (%d cells missing); store now holds %d rows\n",
		cellsAdded, groupsAdded, missing, st.Rows())
	return nil
}
