// The tablerefresh axis sweeps how often routing tables are recomputed
// from current estimates — the route-dissemination latency of §3.1's
// probe→table loop, a design-space knob the fixed-axis engine never
// had.
//
// It is deliberately implemented entirely against the public
// repro/experiment package, as the proof of the axis redesign's payoff:
// adding a grid dimension is one Axis implementation plus one registry
// entry. The -tablerefresh flag below is derived from the registry, the
// sweep engine names/seeds/shards its cells generically, snapshots and
// manifests round-trip its values, and -resume and -merge-only both
// work — with zero changes to the engine, the manifest code, or the
// flag plumbing.
package main

import (
	"fmt"
	"time"

	"repro/experiment"
)

// tableRefreshAxis sweeps Config.TableRefresh; the zero value keeps
// the dataset default (15 s) and positive intervals label cells
// "-t<interval>".
type tableRefreshAxis struct{ vals []experiment.AxisValue }

func parseTableRefresh(s string) (time.Duration, error) {
	if s == "0" {
		return 0, nil
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if v < 0 {
		return 0, fmt.Errorf("table-refresh interval %v must be >= 0", v)
	}
	return v, nil
}

func (a *tableRefreshAxis) Name() string                   { return "tablerefresh" }
func (a *tableRefreshAxis) Values() []experiment.AxisValue { return a.vals }

func (a *tableRefreshAxis) Apply(v experiment.AxisValue, cfg *experiment.Config) error {
	iv, err := parseTableRefresh(string(v))
	if err != nil {
		return fmt.Errorf("axis tablerefresh: bad value %q: %w", v, err)
	}
	if iv > 0 {
		cfg.TableRefresh = iv
	}
	return nil
}

func (a *tableRefreshAxis) Label(v experiment.AxisValue) string {
	iv, err := parseTableRefresh(string(v))
	if err != nil || iv == 0 {
		return ""
	}
	return "-t" + iv.String()
}

func init() {
	experiment.Register(experiment.AxisDef{
		Name:    "tablerefresh",
		Usage:   "sweep: comma-separated routing-table refresh intervals (route-dissemination latency; 0 = dataset default)",
		Default: "0",
		New: func(values []experiment.AxisValue) (experiment.Axis, error) {
			if len(values) == 0 {
				return nil, fmt.Errorf("axis tablerefresh: empty value list")
			}
			canon := make([]experiment.AxisValue, 0, len(values))
			seen := map[experiment.AxisValue]struct{}{}
			for _, v := range values {
				iv, err := parseTableRefresh(string(v))
				if err != nil {
					return nil, fmt.Errorf("axis tablerefresh: bad value %q: %w", v, err)
				}
				c := experiment.AxisValue(iv.String())
				if _, dup := seen[c]; dup {
					return nil, fmt.Errorf("axis tablerefresh: duplicate value %q", c)
				}
				seen[c] = struct{}{}
				canon = append(canon, c)
			}
			return &tableRefreshAxis{vals: canon}, nil
		},
	})
}
