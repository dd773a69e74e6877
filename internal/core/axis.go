package core

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/netsim"
	"repro/internal/route"
)

// A sweep grid used to be a fixed cross product of hard-coded struct
// fields; every new knob meant touching SweepSpec, Cell, GroupName, seed
// derivation, the manifest, and both CLIs. Axes make the grid's
// dimensions data instead: an Axis is a named, self-describing value
// set, cells are coordinates over an axis list, and names, seeds,
// snapshots, and manifests all derive generically — so a new knob is one
// Axis implementation plus a registry entry, wherever it is defined.
//
// Compatibility is load-bearing: the four standard axes (profile,
// hysteresis, probeinterval, losswindow) always occupy the same
// canonical grid positions they had as struct fields, so every existing
// grid's cell names, seeds, and rendered outputs are byte-identical to
// the fixed-field engine (golden_sweep_test.go pins this).

// AxisValue is the canonical string encoding of one point along a grid
// axis — exactly what appears in CLI value lists, cell snapshots, and
// sweep manifests. An axis's Values() are canonical: parsing any of
// them and re-formatting yields the same string.
type AxisValue string

// Axis is one dimension of a sweep grid: an ordered set of values plus
// the knowledge of how each value configures a campaign and labels a
// cell. Implementations must be stateless with respect to cells — the
// same Axis instance is shared by every cell of a sweep.
type Axis interface {
	// Name is the axis's identity: its registry key, CLI flag name, and
	// manifest key. Lowercase, no separators (it becomes a flag).
	Name() string
	// Values returns the swept values in grid order. The first value of
	// most axes is the default; expansion iterates them outermost-first
	// relative to later axes.
	Values() []AxisValue
	// Apply configures one cell's Config for the value. It must accept
	// any canonical value (not just those in Values()): snapshot and
	// manifest restoration applies values recorded by other runs. An
	// error marks the value invalid and fails sweep expansion.
	Apply(v AxisValue, cfg *Config) error
	// Label returns the value's contribution to cell and group names,
	// e.g. "-h0.25". An empty label marks the axis's default value: it
	// keeps the value out of names, snapshot metadata, and manifest
	// group coordinates, which is what lets a grid grow new axes
	// without renaming existing cells.
	Label(v AxisValue) string
}

// AxisDef is a registry entry: how to (re)construct one kind of axis
// from canonical value strings, plus the metadata CLI front-ends need
// to derive a flag for it.
type AxisDef struct {
	// Name is the axis name every constructed instance reports.
	Name string
	// Usage is the CLI flag help text. An empty Usage hides the axis
	// from registry-derived flag registration (the profile axis is
	// driven by the -lossscale/-edgeshare pair instead of a flag of its
	// own).
	Usage string
	// Default is the derived flag's default value list (e.g. "0").
	Default string
	// Flag optionally overrides the derived CLI flag name when the
	// friendly flag differs from the axis identity (the "overlaysize"
	// axis registers as -nodes). Empty means the flag is the axis name.
	Flag string
	// New constructs the axis over the given values, validating and
	// canonicalizing them. It is how manifests and CLIs rebuild axes
	// from strings.
	New func(values []AxisValue) (Axis, error)
}

// axisRegistry maps axis names to their definitions, in registration
// order. The standard axes register first (package init below); other
// packages add their own via RegisterAxis at init time.
var axisRegistry struct {
	order []string
	defs  map[string]AxisDef
}

// RegisterAxis adds an axis kind to the registry, making it
// reconstructable from manifests and snapshots and visible to
// registry-derived CLI flag registration. It panics on a duplicate or
// empty name — registration is an init-time, programmer-error surface.
func RegisterAxis(def AxisDef) {
	if def.Name == "" || def.New == nil {
		panic("core: RegisterAxis with empty name or nil constructor")
	}
	if axisRegistry.defs == nil {
		axisRegistry.defs = map[string]AxisDef{}
	}
	if _, dup := axisRegistry.defs[def.Name]; dup {
		panic(fmt.Sprintf("core: axis %q registered twice", def.Name))
	}
	axisRegistry.defs[def.Name] = def
	axisRegistry.order = append(axisRegistry.order, def.Name)
}

// RegisteredAxes returns every registered axis definition in
// registration order (standard axes first).
func RegisteredAxes() []AxisDef {
	out := make([]AxisDef, 0, len(axisRegistry.order))
	for _, name := range axisRegistry.order {
		out = append(out, axisRegistry.defs[name])
	}
	return out
}

// LookupAxis finds a registered axis definition by name.
func LookupAxis(name string) (AxisDef, bool) {
	def, ok := axisRegistry.defs[name]
	return def, ok
}

// NewAxis constructs a registered axis over the given canonical (or
// CLI-form) values.
func NewAxis(name string, values []AxisValue) (Axis, error) {
	def, ok := LookupAxis(name)
	if !ok {
		return nil, fmt.Errorf("core: axis %q is not registered in this binary (known axes: %v)",
			name, axisRegistry.order)
	}
	return def.New(values)
}

// applyAxisValue applies one named axis value to a config via the
// registry — the restoration path for snapshots and manifests written
// by other processes.
func applyAxisValue(name string, value AxisValue, cfg *Config) error {
	def, ok := LookupAxis(name)
	if !ok {
		return fmt.Errorf("core: axis %q is not registered in this binary; link the package that defines it", name)
	}
	a, err := def.New([]AxisValue{value})
	if err != nil {
		return err
	}
	return a.Apply(value, cfg)
}

// standardAxisNames fixes the canonical grid order of the axes that
// predate the Axis abstraction. They are always part of every grid —
// present at their default when unspecified — so cell names and
// coordinate-derived seeds match the fixed-field engine bit for bit.
var standardAxisNames = [...]string{"profile", "hysteresis", "probeinterval", "losswindow"}

// standardAxisPos returns the canonical position of a standard axis
// name, or -1 for custom axes.
func standardAxisPos(name string) int {
	for i, n := range standardAxisNames {
		if n == name {
			return i
		}
	}
	return -1
}

// defaultStandardAxes returns fresh single-default instances of the
// four standard axes in canonical order.
func defaultStandardAxes() []Axis {
	return []Axis{
		ProfileAxis(ProfileVariant{}),
		HysteresisAxis(0),
		ProbeIntervalAxis(0),
		LossWindowAxis(0),
	}
}

// --- generic scalar axis plumbing ---

// scalarAxis implements Axis for value types with a canonical
// string round trip. parse both decodes and validates; values are
// stored canonically (formatted from the parsed form).
type scalarAxis[T any] struct {
	name   string
	vals   []AxisValue
	parse  func(string) (T, error)
	format func(T) string
	label  func(T) string
	apply  func(T, *Config)
}

func (a *scalarAxis[T]) Name() string        { return a.name }
func (a *scalarAxis[T]) Values() []AxisValue { return append([]AxisValue(nil), a.vals...) }

func (a *scalarAxis[T]) Apply(v AxisValue, cfg *Config) error {
	t, err := a.parse(string(v))
	if err != nil {
		return fmt.Errorf("core: axis %s: %w", a.name, err)
	}
	a.apply(t, cfg)
	return nil
}

func (a *scalarAxis[T]) Label(v AxisValue) string {
	t, err := a.parse(string(v))
	if err != nil {
		// Invalid values cannot reach naming: Apply rejects them during
		// expansion first. Make them visible rather than silent if an
		// axis is misused directly.
		return "-invalid(" + string(v) + ")"
	}
	return a.label(t)
}

// canonicalize formats typed values into the axis's canonical value
// strings.
func canonicalize[T any](vals []T, format func(T) string) []AxisValue {
	out := make([]AxisValue, len(vals))
	for i, v := range vals {
		out[i] = AxisValue(format(v))
	}
	return out
}

// parseScalarValues decodes and canonicalizes a value-string list for a
// scalarAxis factory, rejecting empties and duplicates up front so CLI
// and manifest errors surface before any campaign runs.
func parseScalarValues[T any](name string, values []AxisValue,
	parse func(string) (T, error), format func(T) string) ([]AxisValue, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("core: axis %s: empty value list", name)
	}
	out := make([]AxisValue, 0, len(values))
	seen := map[AxisValue]struct{}{}
	for _, v := range values {
		t, err := parse(string(v))
		if err != nil {
			return nil, fmt.Errorf("core: axis %s: bad value %q: %w", name, v, err)
		}
		c := AxisValue(format(t))
		if _, dup := seen[c]; dup {
			return nil, fmt.Errorf("core: axis %s: duplicate value %q", name, c)
		}
		seen[c] = struct{}{}
		out = append(out, c)
	}
	return out, nil
}

// --- the standard axes ---

// parseHysteresis accepts a non-negative route-damping margin.
func parseHysteresis(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if v < 0 {
		return 0, fmt.Errorf("hysteresis %g must be >= 0", v)
	}
	return v, nil
}

func formatHysteresis(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// HysteresisAxis sweeps Config.Hysteresis, the route-damping margin
// (0 = the paper's undamped selector). Cells with a positive margin are
// labeled "-h<margin>". Invalid values surface when the axis is used
// (NewSweep / NewAxis), not at construction.
func HysteresisAxis(values ...float64) Axis {
	return &scalarAxis[float64]{
		name:   "hysteresis",
		vals:   canonicalize(values, formatHysteresis),
		parse:  parseHysteresis,
		format: formatHysteresis,
		label: func(v float64) string {
			if v > 0 {
				return fmt.Sprintf("-h%g", v)
			}
			return ""
		},
		apply: func(v float64, cfg *Config) { cfg.Hysteresis = v },
	}
}

// parseProbeInterval accepts a Go duration, with bare "0" allowed as
// "use the dataset default" even though time.ParseDuration wants a unit.
func parseProbeInterval(s string) (time.Duration, error) {
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

// ProbeIntervalAxis sweeps the §3.1 routing-probe interval; the zero
// value keeps the dataset default (15 s) and positive values label
// cells "-p<interval>".
func ProbeIntervalAxis(values ...time.Duration) Axis {
	return &scalarAxis[time.Duration]{
		name:   "probeinterval",
		vals:   canonicalize(values, time.Duration.String),
		parse:  parseProbeInterval,
		format: time.Duration.String,
		label: func(v time.Duration) string {
			if v > 0 {
				return "-p" + v.String()
			}
			return ""
		},
		apply: func(v time.Duration, cfg *Config) {
			if v > 0 {
				cfg.ProbeInterval = v
			}
		},
	}
}

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

// LossWindowAxis sweeps the selection-window size in probes; the zero
// value keeps the default (100) and positive values label cells
// "-w<size>".
func LossWindowAxis(values ...int) Axis {
	return &scalarAxis[int]{
		name:   "losswindow",
		vals:   canonicalize(values, strconv.Itoa),
		parse:  parseLossWindow,
		format: strconv.Itoa,
		label: func(v int) string {
			if v > 0 {
				return fmt.Sprintf("-w%d", v)
			}
			return ""
		},
		apply: func(v int, cfg *Config) {
			if v > 0 {
				cfg.LossWindow = v
			}
		},
	}
}

// profileAxis sweeps substrate-profile variants. Its canonical values
// are variant names (the empty name is the calibrated default), so a
// manifest can round-trip any grid whose variant names follow the
// "ls<LossScale>-es<EdgeShare>" convention; variants constructed in
// code may use any name and parameters.
type profileAxis struct {
	variants []ProfileVariant
	byName   map[AxisValue]*netsim.Profile
}

// ProfileAxis sweeps Config.Profile over named substrate variants. The
// zero-value ProfileVariant{} is the calibrated default.
func ProfileAxis(variants ...ProfileVariant) Axis {
	a := &profileAxis{
		variants: append([]ProfileVariant(nil), variants...),
		byName:   make(map[AxisValue]*netsim.Profile, len(variants)),
	}
	for _, v := range a.variants {
		a.byName[AxisValue(v.Name)] = v.Profile
	}
	return a
}

func (a *profileAxis) Name() string { return "profile" }

func (a *profileAxis) Values() []AxisValue {
	out := make([]AxisValue, len(a.variants))
	for i, v := range a.variants {
		out[i] = AxisValue(v.Name)
	}
	return out
}

func (a *profileAxis) Apply(v AxisValue, cfg *Config) error {
	if p, ok := a.byName[v]; ok {
		cfg.Profile = p
		return nil
	}
	// Values outside the axis's own list reach Apply when restoring
	// state recorded by another run; reconstruct from the conventional
	// name form.
	variant, err := parseProfileName(string(v))
	if err != nil {
		return err
	}
	cfg.Profile = variant.Profile
	return nil
}

func (a *profileAxis) Label(v AxisValue) string {
	if v == "" {
		return ""
	}
	return "-" + string(v)
}

// parseProfileName reconstructs a profile variant from its conventional
// "ls<LossScale>-es<EdgeShare>" name (as emitted by ronsim's
// -lossscale/-edgeshare crossing): the calibrated default profile with
// the two knobs overridden. The empty name is the default variant.
func parseProfileName(name string) (ProfileVariant, error) {
	if name == "" {
		return ProfileVariant{}, nil
	}
	var ls, es float64
	if n, err := fmt.Sscanf(name, "ls%g-es%g", &ls, &es); n != 2 || err != nil {
		return ProfileVariant{}, fmt.Errorf(
			"core: profile %q is not reconstructable (want \"ls<x>-es<y>\"); sweeps with custom profile variants must be restored with their original spec", name)
	}
	if canonical := fmt.Sprintf("ls%g-es%g", ls, es); canonical != name {
		return ProfileVariant{}, fmt.Errorf("core: profile %q is not in canonical form (want %q)", name, canonical)
	}
	if ls <= 0 || es <= 0 {
		return ProfileVariant{}, fmt.Errorf("core: profile %q: LossScale and EdgeShare must be > 0", name)
	}
	p := netsim.DefaultProfile()
	p.LossScale = ls
	p.EdgeShare = es
	return ProfileVariant{Name: name, Profile: p}, nil
}

// newProfileAxisFromValues is the registry factory: it rebuilds a
// profile axis from variant names alone.
func newProfileAxisFromValues(values []AxisValue) (Axis, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("core: axis profile: empty value list")
	}
	variants := make([]ProfileVariant, 0, len(values))
	seen := map[string]struct{}{}
	for _, v := range values {
		pv, err := parseProfileName(string(v))
		if err != nil {
			return nil, err
		}
		if _, dup := seen[pv.Name]; dup {
			return nil, fmt.Errorf("core: axis profile: duplicate variant %q", pv.Name)
		}
		seen[pv.Name] = struct{}{}
		variants = append(variants, pv)
	}
	return ProfileAxis(variants...), nil
}

// scalarFactory adapts a scalarAxis constructor into a registry
// factory that validates the value strings eagerly.
func scalarFactory[T any](name string, parse func(string) (T, error),
	format func(T) string, build func(...T) Axis) func([]AxisValue) (Axis, error) {
	return func(values []AxisValue) (Axis, error) {
		canon, err := parseScalarValues(name, values, parse, format)
		if err != nil {
			return nil, err
		}
		typed := make([]T, len(canon))
		for i, v := range canon {
			typed[i], _ = parse(string(v))
		}
		return build(typed...), nil
	}
}

func init() {
	RegisterAxis(AxisDef{
		Name: "profile",
		// No Usage: the CLI drives this axis through -lossscale and
		// -edgeshare rather than a generic -profile flag.
		New: newProfileAxisFromValues,
	})
	RegisterAxis(AxisDef{
		Name:    "hysteresis",
		Usage:   "comma-separated hysteresis margins for the grid",
		Default: "0",
		New:     scalarFactory("hysteresis", parseHysteresis, formatHysteresis, HysteresisAxis),
	})
	RegisterAxis(AxisDef{
		Name:    "probeinterval",
		Usage:   "comma-separated routing-probe intervals (Go durations; 0 = dataset default)",
		Default: "0",
		New:     scalarFactory("probeinterval", parseProbeInterval, time.Duration.String, ProbeIntervalAxis),
	})
	RegisterAxis(AxisDef{
		Name:    "losswindow",
		Usage:   fmt.Sprintf("comma-separated selection-window sizes in probes (0 = default, at most %d)", route.MaxLossWindow),
		Default: "0",
		New:     scalarFactory("losswindow", parseLossWindow, strconv.Itoa, LossWindowAxis),
	})
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
	out := defaultStandardAxes()
	seen := map[string]struct{}{}
	for _, a := range axes {
		if a == nil {
			return nil, fmt.Errorf("core: sweep spec contains a nil axis")
		}
		name := a.Name()
		if name == "" {
			return nil, fmt.Errorf("core: sweep axis with empty name")
		}
		if _, dup := seen[name]; dup {
			return nil, fmt.Errorf("core: sweep axis %q specified twice", name)
		}
		seen[name] = struct{}{}
		if pos := standardAxisPos(name); pos >= 0 {
			out[pos] = a
			continue
		}
		if vals := a.Values(); len(vals) == 1 && a.Label(vals[0]) == "" {
			// Pinned to its default: contributes nothing to names or
			// configs, so including it would only perturb seed
			// derivation relative to a grid that omits it.
			continue
		}
		out = append(out, a)
	}
	for _, a := range out {
		if len(a.Values()) == 0 {
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
