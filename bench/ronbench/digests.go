package main

// pinnedDigests are the output digests of an untraced full-size run at
// seed 1, per workload. BENCHMARK.json has no field for them (its keys
// are fixed by the driver's contract), so they live here. The sweep
// workloads and fleet_drain hash their merged/ tree; the bigworld
// workloads hash the reports of the cold cell and the first five warm
// cells; store_query hashes its query answers. A change that moves one
// of these has changed simulation output, not just speed — re-pin only
// together with the repository's golden digests.
var pinnedDigests = map[string]string{
	"paper_sweep":           "d6e1dda5d9a280a7696233ef26f25a0b87afe8ae34628e0fde760889383b7f5a",
	"stream_scenario_sweep": "48a5e6ef98c74c7a4150bc350855617886eb5b44b4d8784552110bed45482422",
	"fleet_drain":           "983f09e9b94f8ff3834e3b3185af90aaa98d881e2cf61e84c18ae2df9d9edb0a",
	"bigworld_landmark":     "206f7741e7d4b952b68e477cda68513c6effa3a0a0fba5a614127eff859453be",
	"bigworld_mesh":         "88f9cd1a9c342c79575b9f3aec2bdadba6c30081260164c6c7ec4ae6150e18ad",
	"store_query":           "aab87bff026d77ee5e5941cf058bca8ec239fa47f01a4aa15b289fd665727088",
}

// checkPinnedDigest holds a full-size seed-1 run to its pinned digest.
// Other seeds and smoke-test runs have nothing pinned; their repetitions are
// checked against each other (and, per workload, against an independent
// recomputation) instead.
func checkPinnedDigest(e *env, res *result) {
	if e.tiny || e.seed != 1 || res.digest == "" {
		return
	}
	want, ok := pinnedDigests[res.workload]
	switch {
	case !ok:
		res.fail("no digest pinned for %s", res.workload)
	case res.digest != want:
		res.fail("seed-1 digest %s differs from the pinned %s", res.digest, want)
		res.failed = res.attempted
	}
}
