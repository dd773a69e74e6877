package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/netsim"
	"repro/internal/route"
)

// A sweep grid used to be a fixed cross product of hard-coded struct
// fields; every new knob meant touching SweepSpec, Cell, GroupName, seed
// derivation, the manifest, and both CLIs. Axes make the grid's
// dimensions data instead: an AxisDef is the one definition of a knob —
// how a value parses, labels a cell and configures a campaign — an Axis
// is a def plus the values a grid sweeps, cells are coordinates over an
// axis list, and names, seeds, snapshots, and manifests all derive
// generically. A new knob is one registered AxisDef, wherever it is
// defined.
//
// Compatibility is load-bearing: the four standard axes (profile,
// hysteresis, probeinterval, losswindow) always occupy the same
// canonical grid positions they had as struct fields, so every existing
// grid's cell names, seeds, and rendered outputs are byte-identical to
// the fixed-field engine (golden_sweep_test.go pins this).

// AxisValue is the canonical string encoding of one point along a grid
// axis — exactly what appears in CLI value lists, cell snapshots, and
// sweep manifests.
type AxisValue string

// AxisDef defines one kind of grid axis: its identity and CLI metadata,
// and the behaviour of its values. Register it with RegisterAxis; the
// registry is how manifests and snapshots written by other runs rebuild
// axes from strings.
type AxisDef struct {
	// Name is the axis's identity: its registry key, manifest key, and
	// CLI flag name unless Flag overrides it. Lowercase, no separators.
	Name string
	// Flag optionally overrides the derived CLI flag name when the
	// friendly flag differs from the axis identity (the overlaysize
	// axis registers as -nodes). Empty means the flag is Name.
	Flag string
	// Usage is the CLI flag help text. An empty Usage hides the axis
	// from registry-derived flag registration (ronsim drives the
	// profile axis through -lossscale and -edgeshare instead).
	Usage string
	// Default is the axis's default value, and the derived flag's
	// default value list (e.g. "0").
	Default string
	// Parse validates one value in CLI, manifest, or snapshot form and
	// returns its canonical form; a canonical value parses to itself.
	Parse func(string) (AxisValue, error)
	// Label returns a canonical value's contribution to cell and group
	// names, e.g. "-h0.25". An empty label marks the axis's default
	// value: it keeps the value out of names, snapshot metadata, and
	// manifest group coordinates, which is what lets a grid grow new
	// axes without renaming existing cells.
	Label func(AxisValue) string
	// Apply configures one cell's Config for a canonical value.
	Apply func(AxisValue, *Config)
}

// Axis is one dimension of a sweep grid: a registered axis kind and the
// canonical values it sweeps, in grid order. One Axis is shared by
// every cell of a sweep.
type Axis struct {
	def  *AxisDef
	vals []AxisValue
}

// Name is the axis kind's registry name.
func (a Axis) Name() string { return a.def.Name }

// Values returns the swept values in grid order; expansion iterates
// them outermost-first relative to later axes.
func (a Axis) Values() []AxisValue { return slices.Clone(a.vals) }

// Apply configures one cell's Config for the value. It accepts any
// valid value, not just those in Values(): snapshot and manifest
// restoration applies values recorded by other runs. An error marks the
// value invalid and fails sweep expansion.
func (a Axis) Apply(v AxisValue, cfg *Config) error {
	c, err := a.canonical(v)
	if err != nil {
		return fmt.Errorf("core: axis %s: %w", a.def.Name, err)
	}
	a.def.Apply(c, cfg)
	return nil
}

// Label returns the value's contribution to cell and group names; see
// AxisDef.Label.
func (a Axis) Label(v AxisValue) string {
	c, err := a.canonical(v)
	if err != nil {
		// Invalid values cannot reach naming: NewSweep rejects them
		// first. Make them visible rather than silent if an axis is
		// misused directly.
		return "-invalid(" + string(v) + ")"
	}
	return a.def.Label(c)
}

// canonical returns v's canonical form. A swept value is canonical
// already (NewSweep has checked every one), so only a value from
// elsewhere — a snapshot, a manifest, a caller — is parsed again.
func (a Axis) canonical(v AxisValue) (AxisValue, error) {
	if slices.Contains(a.vals, v) {
		return v, nil
	}
	return a.def.Parse(string(v))
}

// axisRegistry holds every registered axis kind in registration order:
// the built-in ones below, then those other packages add with
// RegisterAxis at init time. The first standardAxes are the standard
// axes, which predate the Axis abstraction: they are part of every grid
// — present at their default when unspecified — in this order, so cell
// names and coordinate-derived seeds match the fixed-field engine bit
// for bit.
var axisRegistry = []*AxisDef{
	&profileDef, &hysteresisDef, &probeIntervalDef, &lossWindowDef,
	&overlaySizeDef, &policyDef, &scenarioDef,
	&redundancyDef, &pathsDef, &streamsDef,
}

const standardAxes = 4

// RegisterAxis adds an axis kind to the registry, making it
// reconstructable from manifests and snapshots and visible to
// registry-derived CLI flag registration. It panics on a duplicate or
// empty name or a missing value function — registration is an
// init-time, programmer-error surface.
func RegisterAxis(def AxisDef) {
	if def.Name == "" || def.Parse == nil || def.Label == nil || def.Apply == nil {
		panic("core: RegisterAxis with empty name or a nil Parse, Label, or Apply")
	}
	if lookupAxis(def.Name) != nil {
		panic(fmt.Sprintf("core: axis %q registered twice", def.Name))
	}
	axisRegistry = append(axisRegistry, &def)
}

// RegisteredAxes returns every registered axis definition in
// registration order (standard axes first).
func RegisteredAxes() []AxisDef {
	out := make([]AxisDef, len(axisRegistry))
	for i, def := range axisRegistry {
		out[i] = *def
	}
	return out
}

// LookupAxis finds a registered axis definition by name.
func LookupAxis(name string) (AxisDef, bool) {
	if def := lookupAxis(name); def != nil {
		return *def, true
	}
	return AxisDef{}, false
}

func lookupAxis(name string) *AxisDef {
	for _, def := range axisRegistry {
		if def.Name == name {
			return def
		}
	}
	return nil
}

// NewAxis constructs a registered axis over the given canonical (or
// CLI-form) values, canonicalizing them and rejecting an empty list,
// an invalid value, or two values with one canonical form.
func NewAxis(name string, values []AxisValue) (Axis, error) {
	def := lookupAxis(name)
	if def == nil {
		names := make([]string, len(axisRegistry))
		for i, d := range axisRegistry {
			names[i] = d.Name
		}
		return Axis{}, fmt.Errorf("core: axis %q is not registered in this binary (known axes: %v)", name, names)
	}
	return newAxis(def, values)
}

func newAxis(def *AxisDef, values []AxisValue) (Axis, error) {
	if len(values) == 0 {
		return Axis{}, fmt.Errorf("core: axis %s: empty value list", def.Name)
	}
	vals := make([]AxisValue, len(values))
	for i, v := range values {
		c, err := def.Parse(string(v))
		if err != nil {
			return Axis{}, fmt.Errorf("core: axis %s: bad value %q: %w", def.Name, v, err)
		}
		if slices.Contains(vals[:i], c) {
			return Axis{}, fmt.Errorf("core: axis %s: duplicate value %q", def.Name, c)
		}
		vals[i] = c
	}
	return Axis{def: def, vals: vals}, nil
}

// typedAxis builds an axis from Go values for code that holds them
// typed. A value the def rejects is kept as written, so NewSweep
// reports it.
func typedAxis[T any](def *AxisDef, values []T) Axis {
	vals := make([]AxisValue, len(values))
	for i, v := range values {
		vals[i] = AxisValue(fmt.Sprint(v))
		if c, err := def.Parse(string(vals[i])); err == nil {
			vals[i] = c
		}
	}
	return Axis{def: def, vals: vals}
}

// --- value helpers shared by the built-in axes ---

// typedDef fills def's Parse and Apply from a typed parse/format pair:
// Parse canonicalizes through format, and apply sees the parsed value.
func typedDef[T any](def AxisDef, parse func(string) (T, error), format func(T) string,
	apply func(T, *Config)) AxisDef {
	def.Parse = func(s string) (AxisValue, error) {
		v, err := parse(s)
		if err != nil {
			return "", err
		}
		return AxisValue(format(v)), nil
	}
	def.Apply = func(v AxisValue, cfg *Config) {
		t, _ := parse(string(v))
		apply(t, cfg)
	}
	return def
}

// prefixLabel labels every value but the default dflt as prefix+value.
func prefixLabel(prefix string, dflt AxisValue) func(AxisValue) string {
	return func(v AxisValue) string {
		if v == dflt {
			return ""
		}
		return prefix + string(v)
	}
}

// parseFinite is every float-valued axis's parser: a finite number,
// with -0 read as 0 so it cannot name a second grid point.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if !finite(v) {
		return 0, fmt.Errorf("value %s is not finite", s)
	}
	if v == 0 {
		v = 0
	}
	return v, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// parseDuration accepts a non-negative Go duration, with bare "0"
// allowed as "use the dataset default" even though time.ParseDuration
// wants a unit.
func parseDuration(s string) (time.Duration, error) {
	if s == "0" {
		return 0, nil
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if v < 0 {
		return 0, fmt.Errorf("duration %v must be >= 0", v)
	}
	return v, nil
}

// --- the standard axes ---

// profileDef sweeps substrate-profile variants. A value names a
// LossScale × EdgeShare override of the calibrated profile as
// "ls<LossScale>-es<EdgeShare>"; the (1, 1) point is the calibrated
// default and its name is empty.
var profileDef = typedDef(AxisDef{
	Name:  "profile",
	Label: prefixLabel("-", ""),
}, parseProfileName, formatProfileName, func(v profileScales, cfg *Config) {
	cfg.Profile = nil
	if v != (profileScales{1, 1}) {
		cfg.Profile = netsim.DefaultProfile()
		cfg.Profile.LossScale, cfg.Profile.EdgeShare = v.loss, v.edge
	}
})

// profileScales is a profile value: the LossScale and EdgeShare it sets.
type profileScales struct{ loss, edge float64 }

func parseProfileName(s string) (profileScales, error) {
	if s == "" {
		return profileScales{1, 1}, nil
	}
	rest, ok := strings.CutPrefix(s, "ls")
	ls, es, cut := strings.Cut(rest, "-es")
	if !ok || !cut {
		return profileScales{}, fmt.Errorf("profile %q is not \"ls<LossScale>-es<EdgeShare>\"", s)
	}
	loss, err := ParseProfileScale(ls)
	if err != nil {
		return profileScales{}, fmt.Errorf("profile %q: LossScale: %w", s, err)
	}
	edge, err := ParseProfileScale(es)
	if err != nil {
		return profileScales{}, fmt.Errorf("profile %q: EdgeShare: %w", s, err)
	}
	return profileScales{loss, edge}, nil
}

func formatProfileName(v profileScales) string {
	if v == (profileScales{1, 1}) {
		return ""
	}
	return "ls" + formatFloat(v.loss) + "-es" + formatFloat(v.edge)
}

// ParseProfileScale parses one LossScale or EdgeShare override. The
// substrate honours either only when > 0 (netsim treats non-positive
// values as the calibrated default, which would silently turn a sweep
// axis into a mislabeled baseline), so anything else is an error.
func ParseProfileScale(s string) (float64, error) {
	v, err := parseFinite(s)
	if err == nil && v <= 0 {
		err = fmt.Errorf("value %g must be > 0", v)
	}
	return v, err
}

// ProfileGrid crosses LossScale × EdgeShare overrides into the profile
// axis, LossScale outermost.
func ProfileGrid(lossScales, edgeShares []float64) (Axis, error) {
	var names []AxisValue
	for _, ls := range lossScales {
		for _, es := range edgeShares {
			names = append(names, AxisValue(formatProfileName(profileScales{ls, es})))
		}
	}
	return newAxis(&profileDef, names)
}

// hysteresisDef sweeps Config.Hysteresis, the route-damping margin (0 =
// the paper's undamped selector). Cells with a positive margin are
// labeled "-h<margin>".
var hysteresisDef = typedDef(AxisDef{
	Name:    "hysteresis",
	Usage:   "comma-separated hysteresis margins for the grid",
	Default: "0",
	Label:   prefixLabel("-h", "0"),
}, parseHysteresis, formatFloat, func(v float64, cfg *Config) { cfg.Hysteresis = v })

func parseHysteresis(s string) (float64, error) {
	v, err := parseFinite(s)
	if err == nil && v < 0 {
		err = fmt.Errorf("hysteresis %g must be >= 0", v)
	}
	return v, err
}

// HysteresisAxis sweeps the hysteresis axis over typed margins. Invalid
// values surface when the axis is used (NewSweep), not at construction.
func HysteresisAxis(values ...float64) Axis { return typedAxis(&hysteresisDef, values) }

// probeIntervalDef sweeps the §3.1 routing-probe interval; the zero
// value keeps the dataset default (15 s) and positive values label
// cells "-p<interval>".
var probeIntervalDef = typedDef(AxisDef{
	Name:    "probeinterval",
	Usage:   "comma-separated routing-probe intervals (Go durations; 0 = dataset default)",
	Default: "0",
	Label:   prefixLabel("-p", "0s"),
}, parseDuration, time.Duration.String, func(v time.Duration, cfg *Config) {
	if v > 0 {
		cfg.ProbeInterval = v
	}
})

// lossWindowDef sweeps the selection-window size in probes; the zero
// value keeps the default (100) and positive values label cells
// "-w<size>".
var lossWindowDef = typedDef(AxisDef{
	Name:    "losswindow",
	Usage:   fmt.Sprintf("comma-separated selection-window sizes in probes (0 = default, at most %d)", route.MaxLossWindow),
	Default: "0",
	Label:   prefixLabel("-w", "0"),
}, parseLossWindow, strconv.Itoa, func(v int, cfg *Config) {
	if v > 0 {
		cfg.LossWindow = v
	}
})

// parseLossWindow accepts a non-negative probe-window size the selector
// can hold.
func parseLossWindow(s string) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if v < 0 {
		return 0, fmt.Errorf("loss window %d must be >= 0", v)
	}
	if err := route.ValidateLossWindow(v); err != nil {
		return 0, err
	}
	return v, nil
}

// normalizeAxes merges a spec's axis list onto the standard grid
// skeleton: the four standard axes always occupy their canonical
// positions (specified instances replace the single-default ones),
// and custom axes append after them in the order given. A custom axis
// pinned to a single default (unlabeled) value is dropped entirely.
// Together these rules make "unmentioned" and "pinned to the default"
// the same grid for every axis — same names AND same coordinate-
// derived seeds — and keep custom axes from reordering the standard
// coordinates.
func normalizeAxes(axes []Axis) ([]Axis, error) {
	out := make([]Axis, standardAxes)
	for i, def := range axisRegistry[:standardAxes] {
		dflt, _ := def.Parse(def.Default)
		out[i] = Axis{def: def, vals: []AxisValue{dflt}}
	}
	seen := map[string]struct{}{}
	for _, a := range axes {
		if a.def == nil {
			return nil, fmt.Errorf("core: sweep spec contains a zero Axis")
		}
		// A typed constructor keeps a value it cannot parse; refuse it
		// here, before canonical takes the swept values on trust.
		for _, v := range a.vals {
			if _, err := a.def.Parse(string(v)); err != nil {
				return nil, fmt.Errorf("core: axis %s: bad value %q: %w", a.def.Name, v, err)
			}
		}
		name := a.Name()
		if _, dup := seen[name]; dup {
			return nil, fmt.Errorf("core: sweep axis %q specified twice", name)
		}
		seen[name] = struct{}{}
		if pos := slices.IndexFunc(out[:standardAxes], func(s Axis) bool { return s.Name() == name }); pos >= 0 {
			out[pos] = a
			continue
		}
		if len(a.vals) == 1 && a.Label(a.vals[0]) == "" {
			// Pinned to its default: contributes nothing to names or
			// configs, so including it would only perturb seed
			// derivation relative to a grid that omits it.
			continue
		}
		out = append(out, a)
	}
	for _, a := range out {
		if len(a.vals) == 0 {
			return nil, fmt.Errorf("core: sweep axis %q has no values", a.Name())
		}
	}
	return out, nil
}

// axisValuesByName collects the non-default (labeled) coordinates of a
// cell or group as a name → canonical-value map — the generic identity
// that snapshots and manifests persist.
func axisValuesByName(axes []Axis, coords []AxisValue) map[string]string {
	var out map[string]string
	for i, a := range axes {
		if a.Label(coords[i]) == "" {
			continue
		}
		if out == nil {
			out = map[string]string{}
		}
		out[a.Name()] = string(coords[i])
	}
	return out
}

// sortedAxisNames returns a map's axis names in deterministic order.
func sortedAxisNames(m map[string]string) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
