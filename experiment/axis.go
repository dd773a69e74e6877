package experiment

import (
	"cmp"
	"flag"
	"fmt"
	"slices"

	"repro/internal/core"
)

// The engine's grid types, re-exported so custom axes and experiment
// consumers depend only on this package.
type (
	// Axis is one dimension of a sweep grid: a registered axis kind and
	// the canonical values it sweeps. Build one with NewAxis, or add
	// one to a grid by name with AxisValues.
	Axis = core.Axis
	// AxisValue is an axis value's canonical string encoding — what
	// appears in CLI lists, cell snapshots, and manifests.
	AxisValue = core.AxisValue
	// AxisDef is the one definition of an axis kind: its name and CLI
	// flag metadata, and how a value parses, labels a cell, and
	// configures a campaign. Register one to add a grid dimension
	// without touching the engine.
	AxisDef = core.AxisDef
	// Config parameterizes one campaign; AxisDef.Apply mutates it.
	Config = core.Config
	// Dataset selects one of the paper's measurement campaigns.
	Dataset = core.Dataset
	// WorkloadConfig parameterizes the multi-path + FEC application
	// workload (streams, frame cadence, FEC group shape, path count);
	// pass it to the Workload option.
	WorkloadConfig = core.WorkloadConfig
)

// RONnarrow is the RONnarrow dataset, re-exported.
const RONnarrow = core.RONnarrow

// Register adds an axis kind to the global registry. Registered axes
// reconstruct from manifests and snapshots, and RegisterAxisValueFlags
// derives a CLI flag for them. Call it from an init function; it
// panics on duplicate names.
func Register(def AxisDef) { core.RegisterAxis(def) }

// NewAxis constructs a registered axis over the given values.
func NewAxis(name string, values ...string) (Axis, error) {
	vals := make([]core.AxisValue, len(values))
	for i, v := range values {
		vals[i] = core.AxisValue(v)
	}
	return core.NewAxis(name, vals)
}

// DefaultWorkloadConfig is the workload configuration the workload
// axes enable when they switch a cell on: a small FEC group over two
// disjoint paths. Use it as the base for the Workload option.
func DefaultWorkloadConfig() WorkloadConfig { return core.DefaultWorkloadConfig() }

// RegisterAxisValueFlags derives one CLI flag per registered axis
// (those with Usage set) on fs — flag name, default, and help text all
// come from the registry, so a newly registered axis surfaces on the
// CLI with no per-flag code. The returned collector, called after fs
// is parsed, yields the parsed Axis for every flag that departed from
// its default value list; pass them to Axes for a grid, or apply
// one-value axes directly to a campaign config. Flags left at the
// default are omitted on purpose: an unmentioned axis and an axis
// pinned to its default are the same grid, and omitting untouched
// custom axes keeps coordinate-derived seeds stable.
func RegisterAxisValueFlags(fs *flag.FlagSet) func() ([]Axis, error) {
	type reg struct {
		def AxisDef
		val *string
	}
	var regs []reg
	for _, def := range core.RegisteredAxes() {
		if def.Usage == "" {
			continue
		}
		regs = append(regs, reg{def, fs.String(cmp.Or(def.Flag, def.Name), def.Default, def.Usage)})
	}
	return func() ([]Axis, error) {
		var axes []Axis
		for _, r := range regs {
			axis, err := NewAxis(r.def.Name, SplitList(*r.val)...)
			if err != nil {
				return nil, fmt.Errorf("-%s: %w", cmp.Or(r.def.Flag, r.def.Name), err)
			}
			dflt, err := NewAxis(r.def.Name, SplitList(r.def.Default)...)
			if err != nil {
				return nil, fmt.Errorf("axis %s: bad registered default %q: %w", r.def.Name, r.def.Default, err)
			}
			if !slices.Equal(axis.Values(), dflt.Values()) {
				axes = append(axes, axis)
			}
		}
		return axes, nil
	}
}
