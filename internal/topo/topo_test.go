package topo

import (
	"testing"
	"time"
)

func TestRON2003Shape(t *testing.T) {
	tb := RON2003()
	if tb.N() != 30 {
		t.Fatalf("RON2003 has %d hosts, want 30 (Table 1)", tb.N())
	}
	if got := tb.Paths(); got != 870 {
		t.Errorf("paths = %d, want 870 (nearly nine hundred one-way paths)", got)
	}
}

func TestRON2002Shape(t *testing.T) {
	tb := RON2002()
	if tb.N() != 17 {
		t.Fatalf("RON2002 has %d hosts, want 17 (2002 testbed size)", tb.N())
	}
	// All 2002 hosts must also exist in the 2003 testbed.
	tb3 := RON2003()
	for _, h := range tb.hosts {
		if tb3.Index(h.Name) < 0 {
			t.Errorf("2002 host %q missing from 2003 testbed", h.Name)
		}
	}
}

func TestCategoryCountsMatchTable2(t *testing.T) {
	tb := RON2003()
	counts := categoryCounts(tb)
	// Tallies follow the per-host descriptions of Table 1. (The paper's
	// Table 2 summary lists 9 US ISPs and 5 US companies; Table 1's
	// descriptions yield 10 ISPs and 4 US companies — the tables are
	// off-by-one against each other. We stay faithful to Table 1.)
	if counts[KindUniversity] != 7 {
		t.Errorf("universities = %d, want 7", counts[KindUniversity])
	}
	if counts[KindISP] != 10 {
		t.Errorf("US ISPs = %d, want 10 (per Table 1 descriptions)", counts[KindISP])
	}
	if counts[KindBroadband] != 3 {
		t.Errorf("cable/DSL = %d, want 3", counts[KindBroadband])
	}
	if counts[KindIntl] != 5 {
		t.Errorf("international = %d, want 5 (3 univ + 2 ISP)", counts[KindIntl])
	}
	if counts[KindCompany] != 5 {
		t.Errorf("companies = %d, want 5 (4 US + 1 Canada)", counts[KindCompany])
	}
}

func TestInternet2Marks(t *testing.T) {
	tb := RON2003()
	var n int
	for _, h := range tb.hosts {
		if h.Internet2 {
			n++
			if h.Kind != KindUniversity {
				t.Errorf("Internet2 host %q is not a university", h.Name)
			}
		}
	}
	if n != 6 {
		t.Errorf("Internet2 hosts = %d, want 6 (asterisks in Table 1)", n)
	}
}

func TestBaseLatencyProperties(t *testing.T) {
	tb := RON2003()
	n := tb.N()
	var sum time.Duration
	var count int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				if tb.BaseOneWay(i, j) != 0 {
					t.Fatalf("self latency (%d,%d) nonzero", i, j)
				}
				continue
			}
			d := tb.BaseOneWay(i, j)
			if d <= 0 {
				t.Fatalf("latency %s→%s = %v, want > 0",
					tb.Host(i).Name, tb.Host(j).Name, d)
			}
			if d > 300*time.Millisecond {
				t.Errorf("latency %s→%s = %v implausibly high",
					tb.Host(i).Name, tb.Host(j).Name, d)
			}
			sum += d
			count++
		}
	}
	mean := sum / time.Duration(count)
	// The published mean direct one-way latency (row "direct latency" of
	// the root package's published table) sits above the base matrix,
	// since congestion adds queueing delay.
	if mean < 15*time.Millisecond || mean > 70*time.Millisecond {
		t.Errorf("mean base one-way latency = %v, want within [15ms,70ms]", mean)
	}
}

func TestLatencyGeography(t *testing.T) {
	tb := RON2003()
	mit, lon, korea, nyu := tb.Index("MIT"), tb.Index("GBLX-LON"),
		tb.Index("Korea"), tb.Index("NYU")
	if mit < 0 || lon < 0 || korea < 0 || nyu < 0 {
		t.Fatal("missing expected hosts")
	}
	if tb.BaseOneWay(mit, nyu) >= tb.BaseOneWay(mit, lon) {
		t.Error("MIT→NYU should be faster than MIT→London")
	}
	if tb.BaseOneWay(mit, lon) >= tb.BaseOneWay(mit, korea) {
		t.Error("MIT→London should be faster than MIT→Korea")
	}
	// Triangle: intra-Cambridge pairs should be very fast.
	ma := tb.Index("MA-Cable")
	if d := tb.BaseOneWay(mit, ma); d > 20*time.Millisecond {
		t.Errorf("MIT→MA-Cable = %v, want < 20ms (same city)", d)
	}
}

func TestIndexLookup(t *testing.T) {
	tb := RON2003()
	if i := tb.Index("Korea"); i < 0 || tb.Host(i).Name != "Korea" {
		t.Error("Index(Korea) lookup failed")
	}
	if tb.Index("nonexistent") != -1 {
		t.Error("Index of missing host should be -1")
	}
}

func TestStringers(t *testing.T) {
	for k := Kind(0); k < 6; k++ {
		if k.String() == "" {
			t.Errorf("Kind(%d).String() empty", k)
		}
	}
	for a := AccessClass(0); a < 5; a++ {
		if a.String() == "" {
			t.Errorf("AccessClass(%d).String() empty", a)
		}
	}
}

func TestBroadbandAccessExtraDominates(t *testing.T) {
	// A broadband endpoint must add materially more floor latency than a
	// backbone-grade one; the worst paper path ran to a DSL line.
	if accessExtra(AccessBroadband) <= 4*accessExtra(AccessSmallISP) {
		t.Error("broadband access delay should dominate small-ISP delay")
	}
}

// categoryCounts tallies hosts by kind, mirroring Table 2.
func categoryCounts(tb *Testbed) map[Kind]int {
	m := make(map[Kind]int)
	for _, h := range tb.hosts {
		m[h.Kind]++
	}
	return m
}
