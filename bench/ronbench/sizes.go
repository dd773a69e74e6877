package main

// sizedGrid is the sweep workloads' grids at run size, or at smoke-test
// size for the package's tests. The ISSUE's 0.1 virtual days is halved:
// the timed repetitions, three set-up passes and 136 driver runs have to
// fit the driver's total-time cap (repetitions were lowered first; they
// stop at the floor that still gives cell_p95_ms its 200 samples).
func sizedGrid(e *env, name string) grid {
	switch name {
	case "paper_sweep":
		if e.tiny {
			return paperGrid(0.004, 2)
		}
		return paperGrid(0.05, 8)
	case "stream_scenario_sweep":
		if e.tiny {
			return streamGrid(0.004, 2)
		}
		return streamGrid(0.05, 8)
	default: // fleet_drain: the paper grid as 256 short cells
		if e.tiny {
			return paperGrid(0.002, 4)
		}
		return paperGrid(0.01, 64)
	}
}
