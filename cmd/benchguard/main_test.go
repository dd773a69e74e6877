package main

import (
	"strings"
	"testing"
)

func TestCheckMemory(t *testing.T) {
	mem := func(bytes, allocs float64) Bench {
		return Bench{NsPerOp: 1, BytesPerOp: ptr(bytes), AllocsPerOp: ptr(allocs)}
	}
	cases := []struct {
		label      string
		name       string
		want, got  Bench
		zeroAllocs bool
		fails      []string // one substring per expected failure, in order
	}{
		{"equal", "BenchmarkCampaign/n=1024-lm", mem(250e6, 3900), mem(250e6, 3900), false, nil},
		{"allocs at the slack limit", "BenchmarkSweep/serial", mem(1e6, 100), mem(1e6, 104), false, nil},
		{"allocs over the slack limit", "BenchmarkSweep/serial", mem(1e6, 100), mem(1e6, 105), false, []string{"allocs/op regressed 100 -> 105"}},
		{"bytes within 2%", "BenchmarkCampaign/n=1024-lm", mem(250e6, 3900), mem(254e6, 3900), false, nil},
		{"bytes over 2%", "BenchmarkCampaign/n=1024-lm", mem(250e6, 3900), mem(256e6, 3900), false, []string{"B/op regressed 250000000 -> 256000000"}},
		{"an n² slab back at n=1024", "BenchmarkCampaign/n=1024-lm", mem(250e6, 3900), mem(1012e6, 3942), false, []string{"B/op regressed"}},
		{"bytes and allocs both", "BenchmarkCampaign/n=256", mem(40e6, 1300), mem(65e6, 1400), false, []string{"allocs/op regressed", "B/op regressed"}},
		{"bytes improved", "BenchmarkCampaign/n=64", mem(4e6, 215), mem(2e6, 215), false, nil},
		{"bytes are not gated off the overlay-size curve", "BenchmarkCampaign/paper", mem(490080, 104), mem(900000, 104), false, nil},
		{"nor on other benchmarks", "BenchmarkSweep/serial", mem(1895537, 478), mem(4e6, 478), false, nil},
		{"zero-alloc benchmark allocating", "BenchmarkAggregatorObserve", mem(0, 0), mem(16, 1), true, []string{"must be 0"}},
		{"zero-alloc benchmark gets no slack", "BenchmarkSelectorSnapshot", mem(0, 2), mem(0, 2), true, []string{"must be 0"}},
		{"baseline without -benchmem numbers", "BenchmarkCampaign/n=64", Bench{NsPerOp: 1}, mem(9e9, 9e9), false, nil},
		{"run without -benchmem numbers", "BenchmarkCampaign/n=64", mem(4e6, 215), Bench{NsPerOp: 1}, false, nil},
	}
	for _, c := range cases {
		got := checkMemory(c.name, c.want, c.got, c.zeroAllocs)
		if len(got) != len(c.fails) {
			t.Errorf("%s: failures %q, want %d", c.label, got, len(c.fails))
			continue
		}
		for i, sub := range c.fails {
			if !strings.Contains(got[i], sub) || !strings.HasPrefix(got[i], c.name+":") {
				t.Errorf("%s: failure %q does not name %s and %q", c.label, got[i], c.name, sub)
			}
		}
	}
}
