package core

import (
	"sort"
	"strings"

	"repro/internal/resultstore"
)

// The result-store bridge: how a finished campaign Result becomes one
// flat row of the columnar sink. StoreTables extracts the render-ready
// table views (the byte-identity contract: resultstore.RowTables on
// the stored row re-renders every paper table exactly); storeRow wraps
// them with the cell's identity, axis coordinates, and a few
// query-only extras the tables don't carry.

// StoreTables extracts a Result's render-ready tables, the ones its
// files, its report and its store row all carry. It flushes the
// aggregator first (idempotent).
func StoreTables(res *Result) resultstore.Tables {
	res.Agg.Flush()
	t := resultstore.Tables{
		Overview:     res.Table5Rows(),
		LatencyLabel: res.LatencyLabel(),
		Hours:        res.Agg.HighLossHours(),
	}
	if ws := res.Agg.Workload(); ws != nil && ws.HasData() {
		t.Workload = ws.Table()
	}
	if rs := res.Agg.Resilience(); rs != nil && rs.HasData() {
		t.Resilience = rs.Table()
	}
	return t
}

// storeRow builds one result-store row from a campaign (or merged)
// Result plus the identity the caller knows: kind, names, axis map,
// replica coordinates, and the backing snapshot path (cell rows only).
// The metric vector is the flattened table set plus, per method, the
// p50, p95 and mean (win20.<method>.p50/p95/mean) of Figure 3's pooled
// 20-minute loss rates (analysis.WindowShort windows), for loss-rate
// queries that don't need a table.
func storeRow(kind, name, group, dataset string, axes map[string]string,
	replica, replicas int, seed uint64, snapshot string, res *Result) *resultstore.Row {
	r := &resultstore.Row{
		Kind:          kind,
		Name:          name,
		Group:         group,
		Dataset:       dataset,
		Replica:       int32(replica),
		Replicas:      int32(replicas),
		Hosts:         int32(res.Testbed.N()),
		Seed:          seed,
		Days:          res.Config.Days,
		RONProbes:     res.RONProbes,
		MeasureProbes: res.MeasureProbes,
		RouteChanges:  res.RouteChanges,
		Snapshot:      snapshot,
	}
	for k, v := range axes {
		r.Axes = append(r.Axes, resultstore.AxisKV{Key: k, Value: v})
	}
	sort.Slice(r.Axes, func(i, j int) bool { return r.Axes[i].Key < r.Axes[j].Key })
	r.Metrics = StoreTables(res).Flatten(r.Metrics)
	for m, method := range res.Agg.Methods() {
		cdf := res.Agg.WindowRateCDF(m)
		if cdf == nil || cdf.N() == 0 {
			continue
		}
		p := "win20." + method + "."
		r.Metrics = append(r.Metrics,
			resultstore.Metric{Col: p + "p50", Val: cdf.Quantile(0.5)},
			resultstore.Metric{Col: p + "p95", Val: cdf.Quantile(0.95)},
			resultstore.Metric{Col: p + "mean", Val: cdf.Mean()},
		)
	}
	return r
}

// CellStoreRow builds the store row for one completed cell.
func CellStoreRow(c Cell, res *Result) *resultstore.Row {
	return storeRow(resultstore.KindCell, c.Name(), c.GroupName(),
		strings.ToLower(c.Dataset.String()), c.AxisValues(),
		c.Replica, 1, c.Seed, CellSnapshotRelPath(c.Name()), res)
}

// GroupStoreRow builds the store row for one merged group; c is any
// cell of the group (identity comes from its group coordinates) and
// merged the replica-merged Result.
func GroupStoreRow(c Cell, merged *Result) *resultstore.Row {
	replicas := merged.MergedReplicas
	if replicas == 0 {
		replicas = 1
	}
	return storeRow(resultstore.KindGroup, c.GroupName(), c.GroupName(),
		strings.ToLower(c.Dataset.String()), c.AxisValues(),
		-1, replicas, 0, "", merged)
}
