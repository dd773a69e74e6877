// Package tablerefresh registers the tablerefresh axis, which sweeps
// how often routing tables are recomputed from current estimates — the
// route-dissemination latency of §3.1's probe→table loop, a
// design-space knob the fixed-axis engine never had. It exports
// nothing: ronsim and ronreport import it for its init, so both
// binaries know the axis — ronsim derives its -tablerefresh flag and
// runs the grid, ronreport reads the sweep directories it leaves.
//
// It is deliberately defined entirely against the public
// repro/experiment package, as the proof of the axis redesign's payoff:
// adding a grid dimension is one registered AxisDef. The flag is
// derived from the registry, the sweep engine names/seeds/shards its
// cells generically, snapshots and manifests round-trip its values,
// and -resume, -merge-only, ronreport -sweep, -reindex and -drill all
// work — with zero changes to the engine, the manifest code, or the
// flag plumbing.
package tablerefresh

import (
	"fmt"
	"time"

	"repro/experiment"
)

// The tablerefresh axis sweeps Config.TableRefresh; the zero value
// keeps the dataset default (15 s) and positive intervals label cells
// "-t<interval>". Canonical values are time.Duration strings.
func init() {
	experiment.Register(experiment.AxisDef{
		Name:    "tablerefresh",
		Usage:   "comma-separated routing-table refresh intervals (route-dissemination latency; 0 = dataset default)",
		Default: "0",
		Parse: func(s string) (experiment.AxisValue, error) {
			if s == "0" {
				return "0s", nil
			}
			v, err := time.ParseDuration(s)
			if err == nil && v < 0 {
				err = fmt.Errorf("table-refresh interval %v must be >= 0", v)
			}
			return experiment.AxisValue(v.String()), err
		},
		Label: func(v experiment.AxisValue) string {
			if v == "0s" {
				return ""
			}
			return "-t" + string(v)
		},
		Apply: func(v experiment.AxisValue, cfg *experiment.Config) {
			if v != "0s" {
				cfg.TableRefresh, _ = time.ParseDuration(string(v))
			}
		},
	})
}
