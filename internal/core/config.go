// Package core orchestrates measurement campaigns: it drives the paper's
// probe processes (§3.1 RON probing, §4.1 measurement probes) over the
// simulated substrate, feeds the routing selector and the statistics
// aggregator, and exposes the results as the paper's tables and figures.
//
// A campaign runs in an Arena (NewArena, Arena.Run), which keeps its
// world and buffers for the next campaign of the same shape. Every
// other run is a sweep (SweepSpec, NewSweep, Sweep.Run):
// deterministic expansion of a campaign grid over first-class value
// axes (Axis, the axis registry) whose per-cell seeds derive from
// grid coordinates via splitmix64, one run state (Sweep.Start,
// SweepRun) that reloads, lands and folds cells whichever dispatcher
// computes them, and replica merging into per-grid-point tables.
// Sweeps are distributable and resumable: CellFilter shards a grid
// across machines, CellSnapshot persists each finished cell's
// aggregator state (axis coordinates included) in a checksummed
// container, and SweepManifest records the full grid — every axis
// with its values — so an offline pass (a run of the manifest's grid
// that dispatches nothing) can recombine any union of completed cells
// — byte-identical to a single-machine run — report what is missing,
// and re-derive the grid elsewhere. The public repro/experiment
// package is the intended consumer surface: a functional-options
// builder, the axis registry's CLI flag derivation, and custom-axis
// registration.
// See docs/ARCHITECTURE.md for the lifecycle and file formats.
package core

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/netsim"
	"repro/internal/route"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Dataset selects one of the paper's three measurement campaigns
// (Table 3).
type Dataset uint8

// Datasets.
const (
	// RON2003 is the 2003 campaign: 30 hosts, six probe sets, fourteen
	// days, 32.6M samples.
	RON2003 Dataset = iota
	// RONwide is the July 2002 campaign: 17 hosts, eleven routing
	// methods, round-trip samples (Table 7).
	RONwide
	// RONnarrow is the July 2002 campaign measuring the three most
	// promising methods with frequent one-way probes.
	RONnarrow
)

// String names the dataset as in Table 3.
func (d Dataset) String() string {
	switch d {
	case RON2003:
		return "RON2003"
	case RONwide:
		return "RONwide"
	case RONnarrow:
		return "RONnarrow"
	default:
		return fmt.Sprintf("dataset(%d)", uint8(d))
	}
}

// ParseDataset maps a case-insensitive dataset name (as printed by
// Dataset.String, used in CLI flags and manifests) back to its Dataset.
func ParseDataset(s string) (Dataset, error) {
	switch strings.ToLower(s) {
	case "ron2003":
		return RON2003, nil
	case "ronwide":
		return RONwide, nil
	case "ronnarrow":
		return RONnarrow, nil
	default:
		return 0, fmt.Errorf("core: unknown dataset %q (want ron2003, ronwide, ronnarrow)", s)
	}
}

// Config parameterizes a campaign. The zero value is not runnable; start
// from DefaultConfig.
type Config struct {
	// Dataset picks the testbed size, method set, and latency semantics.
	Dataset Dataset
	// Days is the virtual campaign length. The paper ran 4–14 days;
	// shorter campaigns reproduce the same statistics with wider error
	// bars.
	Days float64
	// Seed makes the whole campaign deterministic.
	Seed uint64
	// Profile overrides the substrate profile (nil = calibrated
	// default). Used by ablation benchmarks.
	Profile *netsim.Profile
	// Methods overrides the dataset's method set (nil = paper's set).
	Methods []route.Method
	// Nodes, when > 0, replaces the dataset's paper testbed with an
	// n-host synthetic topology (topo.Synthetic) — the overlaysize axis.
	// 0 keeps the paper testbed and runs bit-identically to builds that
	// predate the knob.
	Nodes int
	// Policy selects the probing/route-scan policy (the policy axis):
	// PolicyFullMesh (default, the paper's O(n²) probing) or
	// PolicyLandmark (O(n·√n) probing with landmark-restricted vias).
	Policy Policy

	// ProbeInterval is the RON routing-probe interval; the paper's
	// system probes every pair every 15 seconds (§3.1).
	ProbeInterval time.Duration
	// LossWindow is the probe window for path selection (paper: 100).
	LossWindow int
	// TableRefresh is how often routing tables are recomputed from
	// current estimates; it models route-dissemination latency.
	TableRefresh time.Duration
	// Hysteresis, when > 0, damps route selection: a challenger path
	// must beat the held path's metric by this relative margin before
	// the lat/loss tables move (RON-style flap suppression). 0 (the
	// paper's simple selector) switches on any improvement.
	Hysteresis float64
	// MeasureGapMin/Max bound the random pause between a node's
	// measurement probes ("waits for a random amount of time between
	// 0.6 and 1.2 seconds", §4.1).
	MeasureGapMin, MeasureGapMax time.Duration

	// TraceSink, when non-nil, receives a §4.1-style log record for
	// every measurement-probe packet sent and received, letting
	// campaigns persist the same raw logs the testbed's central
	// monitoring machine collected (feed them to internal/trace and
	// cmd/ronreport). Records arrive in virtual-time order of the
	// sends. Setting it changes no table, figure or snapshot byte.
	TraceSink func(trace.Record)

	// Workload configures the application-traffic layer: FEC-protected
	// periodic frame streams striped across link-disjoint overlay paths,
	// measured against best-path delivery of the same frames. Disabled
	// (Streams == 0, the default) campaigns run bit-identically to
	// pre-workload builds: no extra events, RNG draws, or packet keys.
	Workload WorkloadConfig

	// Scenario selects a scripted failure scenario (scheduled outages,
	// failure storms, link flapping, maintenance windows) replayed
	// deterministically over the campaign. Disabled (the default)
	// campaigns run bit-identically to pre-scenario builds.
	Scenario ScenarioConfig
}

// DefaultConfig returns the paper-faithful configuration for a dataset at
// the given virtual length. Days == 0, the unset value, selects a 2-day
// campaign — long enough for stable Table 5 statistics while keeping the
// default run fast; any other value, a negative one included, is kept
// for Validate to judge.
func DefaultConfig(d Dataset, days float64) Config {
	if days == 0 {
		days = 2
	}
	return Config{
		Dataset:       d,
		Days:          days,
		Seed:          1,
		ProbeInterval: 15 * time.Second,
		LossWindow:    route.DefaultLossWindow,
		TableRefresh:  15 * time.Second,
		MeasureGapMin: 600 * time.Millisecond,
		MeasureGapMax: 1200 * time.Millisecond,
	}
}

// testbed returns the dataset's host set. With Nodes > 0 the paper
// testbed is replaced by the canonical synthetic world of that size —
// derivable from the Config alone, which is what lets snapshots and
// arenas re-derive the topology from recorded axis values.
func (c Config) testbed() *topo.Testbed {
	if c.Nodes > 0 {
		return topo.Synthetic(c.Nodes)
	}
	if c.Dataset == RON2003 {
		return topo.RON2003()
	}
	return topo.RON2002()
}

// methods returns the effective method list.
func (c Config) methods() []route.Method {
	if c.Methods != nil {
		return c.Methods
	}
	switch c.Dataset {
	case RONwide:
		return route.RONwideMethods()
	case RONnarrow:
		return route.RONnarrowMethods()
	default:
		return route.RON2003Methods()
	}
}

// validateTopology bounds-checks the overlay-size and policy knobs. It
// is split from validate so the arena can reject a bad topology before
// constructing it.
func (c Config) validateTopology() error {
	if c.Nodes != 0 {
		if err := topo.ValidateSyntheticSize(c.Nodes); err != nil {
			return err
		}
		if err := route.ValidateMeshSize(c.Nodes); err != nil {
			return err
		}
	}
	return c.Policy.validate()
}

// roundTrip reports whether latency samples are round-trip times
// (RONwide; "This table presents round-trip latency numbers", Table 7).
func (c Config) roundTrip() bool { return c.Dataset == RONwide }

// maxDays is the longest campaign the virtual clock can represent.
const maxDays = float64(math.MaxInt64 / netsim.Day)

// Validate checks the configuration.
func (c Config) Validate() error { return c.validate(c.methods()) }

// validate is Validate with the effective method list supplied by the
// caller, so the arena's hot path can validate against its cached
// methods without rebuilding them per cell.
func (c Config) validate(methods []route.Method) error {
	// The clock is an int64 of nanoseconds: a longer campaign's end
	// would not fit it.
	if !(c.Days > 0 && c.Days <= maxDays) {
		return fmt.Errorf("core: Days = %v, want > 0 and <= %v", c.Days, maxDays)
	}
	if !finite(c.Hysteresis) || c.Hysteresis < 0 {
		return fmt.Errorf("core: Hysteresis = %v, want finite and >= 0", c.Hysteresis)
	}
	if p := c.Profile; p != nil && !(finite(p.LossScale) && finite(p.EdgeShare)) {
		return fmt.Errorf("core: profile LossScale = %v, EdgeShare = %v, want finite", p.LossScale, p.EdgeShare)
	}
	if c.ProbeInterval <= 0 {
		return fmt.Errorf("core: ProbeInterval = %v, want > 0", c.ProbeInterval)
	}
	if c.TableRefresh <= 0 {
		return fmt.Errorf("core: TableRefresh = %v, want > 0", c.TableRefresh)
	}
	if c.MeasureGapMin <= 0 || c.MeasureGapMax < c.MeasureGapMin {
		return fmt.Errorf("core: measurement gap [%v,%v] invalid",
			c.MeasureGapMin, c.MeasureGapMax)
	}
	if err := route.ValidateLossWindow(c.LossWindow); err != nil {
		return err
	}
	if err := c.validateTopology(); err != nil {
		return err
	}
	for _, m := range methods {
		if err := m.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	if err := c.Workload.validate(); err != nil {
		return err
	}
	if err := c.Scenario.validate(); err != nil {
		return err
	}
	return nil
}
