package main

// -reindex backfills a result store from a sweep output directory's
// persisted snapshots, so pre-store sweep outputs (and -merge-only
// reruns, which bypass the live sinks) become queryable without
// recomputing anything. It is a resumed run of the manifest's grid
// that dispatches nothing, its Filter selecting the grid points the
// segment has no group row for: Sweep.Start reloads their cells
// through -resume's admission check and appends rows as a live run
// does, so a refused snapshot adds no row and a rebuilt store holds
// the rows the live one did, in grid order. A cell row the segment
// already holds is appended again and deduped by identity on read.

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"slices"

	"repro/experiment"
	"repro/internal/core"
	"repro/internal/resultstore"
)

func reindexStore(w io.Writer, root, segPath string) error {
	m, err := experiment.LoadManifest(root)
	if err != nil {
		return err
	}
	grouped := map[string]bool{} // grid points the segment has a row for
	if seg, err := resultstore.ReadSegment(segPath); err == nil {
		for i := range seg.Rows {
			if r := &seg.Rows[i]; r.Kind == resultstore.KindGroup {
				grouped[r.Name] = true
			}
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	s, err := m.Sweep(func(format string, args ...any) { fmt.Fprintf(w, format, args...) },
		func(c core.Cell) bool { return !grouped[c.GroupName()] })
	if err != nil {
		return err
	}
	st, err := resultstore.Open(segPath)
	if err != nil {
		return err
	}
	defer st.Close()

	cells, groups, missing := 0, 0, 0
	if slices.ContainsFunc(m.Groups, func(g core.ManifestGroup) bool { return !grouped[g.Name] }) {
		run, _, err := s.Start(root, true, st, nil)
		if err != nil {
			return err
		}
		if err := run.Err(); err != nil {
			return err
		}
		res := run.Result(0)
		cells, missing = res.Reused, res.Selected-res.Reused
		for gi := range res.Groups {
			if res.Groups[gi].Complete() {
				groups++
			}
		}
	}
	fmt.Fprintf(w, "reindex: added %d cell and %d group rows (%d cells missing); store now holds %d rows\n",
		cells, groups, missing, st.Rows())
	return st.Close()
}
