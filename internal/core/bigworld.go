package core

import (
	"fmt"
	"strconv"

	"repro/internal/route"
	"repro/internal/topo"
)

// Big-world sweeps: the overlaysize axis swaps the ~30-host paper
// testbed for generator-driven synthetic topologies of arbitrary n, and
// the policy axis swaps the paper's full-mesh O(n²) probing for the
// landmark-subset policy that keeps thousand-node overlays tractable.
// Both axes default to "off" with empty labels, so existing grids keep
// their cell names and coordinate-derived seeds bit for bit.

// Policy selects the probing and route-scan policy for a campaign.
type Policy uint8

// Policies.
const (
	// PolicyFullMesh is the paper's system: every node probes every
	// other node, and any node is a via candidate. O(n²) probe links.
	PolicyFullMesh Policy = iota
	// PolicyLandmark probes O(n·√n) links: a deterministic ⌈√n⌉-node
	// landmark subset is probed by (and probes) everyone, non-landmark
	// pairs keep only ring neighbors, and via candidates are restricted
	// to landmarks.
	PolicyLandmark
)

// String names the policy in its canonical axis-value form.
func (p Policy) String() string {
	switch p {
	case PolicyFullMesh:
		return "fullmesh"
	case PolicyLandmark:
		return "landmark"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// ParsePolicy maps a canonical policy name back to its Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "fullmesh":
		return PolicyFullMesh, nil
	case "landmark":
		return PolicyLandmark, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (want fullmesh, landmark)", s)
	}
}

func (p Policy) validate() error {
	if p > PolicyLandmark {
		return fmt.Errorf("core: Policy = %d out of range", uint8(p))
	}
	return nil
}

// parseOverlaySize accepts an overlay size: 0 keeps the paper testbed,
// anything else must be a valid synthetic size within the selector's
// mesh cap.
func parseOverlaySize(s string) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if v == 0 {
		return 0, nil
	}
	if err := topo.ValidateSyntheticSize(v); err != nil {
		return 0, err
	}
	if err := route.ValidateMeshSize(v); err != nil {
		return 0, err
	}
	return v, nil
}

// overlaySizeDef sweeps Config.Nodes, the synthetic overlay size; the
// zero value keeps the dataset's paper testbed (and an empty label, so
// grids without the axis are unchanged) and positive values label cells
// "-n<size>". The CLI flag is -nodes.
var overlaySizeDef = typedDef(AxisDef{
	Name:    "overlaysize",
	Flag:    "nodes",
	Usage:   "comma-separated synthetic overlay sizes (0 = paper testbed)",
	Default: "0",
	Label:   prefixLabel("-n", "0"),
}, parseOverlaySize, strconv.Itoa, func(v int, cfg *Config) { cfg.Nodes = v })

// policyDef sweeps Config.Policy over probing policies; "fullmesh"
// (the paper's system) is the unlabeled default and "landmark" labels
// cells "-lm".
var policyDef = typedDef(AxisDef{
	Name:    "policy",
	Usage:   "comma-separated probing policies (fullmesh, landmark)",
	Default: "fullmesh",
	Label: func(v AxisValue) string {
		if v == AxisValue(PolicyLandmark.String()) {
			return "-lm"
		}
		return ""
	},
}, ParsePolicy, Policy.String, func(v Policy, cfg *Config) { cfg.Policy = v })
