package main

import (
	"strings"
	"testing"
)

// TestOutput pins the example's whole output, so the numbers its doc
// comment quotes cannot drift from what it prints.
func TestOutput(t *testing.T) {
	expect := []string{
		"(5,1) systematic RS code on the simulated MIT→Korea path",
		"group spread     raw loss %   post-FEC %  groups killed",
		"0s                    2.06%        2.06%       115/4000",
		"10ms                  2.02%        1.99%       114/4000",
		"50ms                  2.01%        1.92%       119/4000",
		"200ms                 2.11%        1.80%       142/4000",
		"500ms                 2.16%        1.39%       133/4000",
		"2s                    2.11%        0.46%        51/4000",
		"10s                   2.09%        0.14%        16/4000",
		"",
		"Spreading the group decouples its packets from the burst that",
		"claimed the first loss — at the cost of that much added recovery",
		"delay, which §5.2 notes erases the latency advantage for",
		"interactive traffic. Multi-second congestion events still defeat",
		"any practical spread: FEC without path diversity \"cannot tolerate",
		"large burst losses or path failures\" (§5.2).",
	}
	var b strings.Builder
	run(&b)
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	for i := 0; i < len(lines) && i < len(expect); i++ {
		if lines[i] != expect[i] {
			t.Errorf("line %d:\n got %q\nwant %q", i+1, lines[i], expect[i])
		}
	}
	if len(lines) != len(expect) {
		t.Errorf("printed %d lines, want %d:\n%s", len(lines), len(expect), b.String())
	}
}
