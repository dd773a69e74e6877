package route

import (
	"math/rand"
	"testing"
	"time"
)

// pathLinks returns the directed links a choice's path crosses.
func pathLinks(src, dst int, c Choice) [][2]int {
	if c.IsDirect() {
		return [][2]int{{src, dst}}
	}
	return [][2]int{{src, c.Via}, {c.Via, dst}}
}

// TestKBestDisjointProperties is the satellite property test: across
// randomized meshes and pairs, the returned paths are pairwise
// link-disjoint, ordered by estimated loss ascending, bounded by both k
// and n-1, and headed by the same optimum BestLoss would pick (modulo
// BestLoss's direct-wins tie-break, which KBestDisjointAppend expresses
// through its deterministic total order).
func TestKBestDisjointProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(10)
		s := NewSelectorWindow(n, 0)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				// A random mix of measured links (some probes, some
				// losses) and untouched ones (fallback estimates).
				if rng.Intn(4) == 0 {
					continue
				}
				probes := 1 + rng.Intn(20)
				for p := 0; p < probes; p++ {
					lost := rng.Float64() < 0.3
					s.Record(i, j, lost, time.Duration(1+rng.Intn(200))*time.Millisecond)
				}
			}
		}
		src := rng.Intn(n)
		dst := rng.Intn(n - 1)
		if dst >= src {
			dst++
		}
		k := 1 + rng.Intn(n+1)
		got := s.KBestDisjointAppend(nil, src, dst, k)

		want := k
		if max := n - 1; want > max {
			want = max
		}
		if len(got) != want {
			t.Fatalf("trial %d: n=%d k=%d: got %d paths, want %d",
				trial, n, k, len(got), want)
		}
		seenVia := map[int]bool{}
		for i, c := range got {
			if c.Via == src || c.Via == dst {
				t.Fatalf("trial %d: path %d routes via an endpoint: %v", trial, i, c)
			}
			if seenVia[c.Via] {
				t.Fatalf("trial %d: duplicate via %d", trial, c.Via)
			}
			seenVia[c.Via] = true
			// Pairwise link-disjointness against every other path.
			for j := 0; j < i; j++ {
				for _, la := range pathLinks(src, dst, got[i]) {
					for _, lb := range pathLinks(src, dst, got[j]) {
						if la == lb {
							t.Fatalf("trial %d: paths %v and %v share link %v",
								trial, got[j], got[i], la)
						}
					}
				}
			}
			if i > 0 && kbetter(c, got[i-1]) {
				t.Fatalf("trial %d: order violated at %d: %v before %v",
					trial, i, got[i-1], got[i])
			}
		}
		// The head of the list must estimate no worse than BestLoss's
		// pick (BestLoss may return a direct tie at equal loss).
		best := s.BestLoss(src, dst)
		const eps = 1e-9
		if got[0].Loss > best.Loss+eps {
			t.Fatalf("trial %d: head %v worse than BestLoss %v", trial, got[0], best)
		}
	}
}

// TestKBestDisjointAppendMatches pins a reused scratch buffer, the way
// the campaign calls it, to a fresh nil buffer.
func TestKBestDisjointAppendMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSelectorWindow(8, 0)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i != j {
				s.Record(i, j, rng.Intn(3) == 0, time.Duration(5+rng.Intn(90))*time.Millisecond)
			}
		}
	}
	var buf []Choice
	for src := 0; src < 8; src++ {
		for dst := 0; dst < 8; dst++ {
			if src == dst {
				continue
			}
			for k := 1; k <= 4; k++ {
				want := s.KBestDisjointAppend(nil, src, dst, k)
				buf = s.KBestDisjointAppend(buf[:0], src, dst, k)
				if len(buf) != len(want) {
					t.Fatalf("(%d,%d,k=%d): append len %d vs %d", src, dst, k, len(buf), len(want))
				}
				for i := range want {
					if buf[i] != want[i] {
						t.Fatalf("(%d,%d,k=%d)[%d]: %v vs %v", src, dst, k, i, buf[i], want[i])
					}
				}
			}
		}
	}
	if got := s.KBestDisjointAppend(nil, 3, 3, 2); got != nil {
		t.Fatalf("src==dst returned %v", got)
	}
	if got := s.KBestDisjointAppend(nil, 0, 1, 0); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
}
