package detmath

import (
	"math"
	"testing"
)

// expIntMeans are the means the exactness checks run at: a 1 ns mean,
// the 300 µs jitter and 3 ms and 6 ms queueing means of the simulated
// components, and a 1 s mean where the kernel's error is largest.
var expIntMeans = []float64{1, 3e5, 3e6, 6e6, 1e9}

// expIntCase is one (u, mean) input; near marks a u built so that
// Exp(u, mean) lies closer to an integer than the kernel can resolve.
type expIntCase struct {
	u, mean float64
	near    bool
}

// expIntEdgeCases returns, at every mean: u = 0, 2⁻⁵³ and 1−2⁻⁵³; both
// edges of each of the 256 table cells in [1/2, 1); and, for several
// targets N, the u within 64 ulps of exp(−N/mean) whose deviate lands
// nearest N, which lies within 10⁻⁶ of it and inside the band where the
// rounding test must decline.
func expIntEdgeCases() []expIntCase {
	var cs []expIntCase
	for _, mean := range expIntMeans {
		for _, u := range []float64{0, 0x1p-53, 1 - 0x1p-53} {
			cs = append(cs, expIntCase{u: u, mean: mean})
		}
		for i := 0; i < 256; i++ {
			lo := 0.5 * (1 + float64(i)/256)
			hi := math.Nextafter(0.5*(1+float64(i+1)/256), 0)
			cs = append(cs, expIntCase{u: lo, mean: mean}, expIntCase{u: hi, mean: mean})
		}
		for _, x := range []float64{0.01, 0.5, 1, 3, 20} {
			n := math.Max(1, math.Round(mean*x))
			best, bestDist := 0.0, math.Inf(1)
			u := math.Exp(-n / mean)
			for j := 0; j < 64; j++ {
				u = math.Nextafter(u, 0)
			}
			for j := 0; j <= 128; j++ {
				if dist := math.Abs(Exp(u, mean) - n); dist < bestDist {
					best, bestDist = u, dist
				}
				u = math.Nextafter(u, 1)
			}
			cs = append(cs, expIntCase{u: best, mean: mean, near: true})
		}
	}
	return cs
}

// nearInteger reports whether Exp(u, mean) is within 10⁻⁶ of an integer
// n ≥ 1 and within 0.4·2⁻³⁷·mean of it. By expInt's bound its a is then
// within 0.92·2⁻³⁷·mean of n, inside (a−d, a+d), so the rounding test
// must decline.
func nearInteger(u, mean float64) bool {
	e := Exp(u, mean)
	n := math.Round(e)
	dist := math.Abs(e - n)
	return n >= 1 && dist < 1e-6 && dist < 0.4*mean*expIntSlack
}

// TestExpIntEdgeCases checks ExpInt against its definition on the edge
// cases and that every near-integer case takes the fallback.
func TestExpIntEdgeCases(t *testing.T) {
	for _, c := range expIntEdgeCases() {
		fell := false
		exact := func(u, mean float64) int64 { fell = true; return expIntExact(u, mean) }
		want := int64(Exp(c.u, c.mean))
		if got := expInt(c.u, c.mean, exact); got != want {
			t.Errorf("ExpInt(%v, %v) = %d, want int64(Exp) = %d", c.u, c.mean, got, want)
		}
		if !c.near {
			continue
		}
		if !nearInteger(c.u, c.mean) {
			t.Fatalf("Exp(%v, %v) = %.17g: the built case is not near an integer", c.u, c.mean, Exp(c.u, c.mean))
		}
		if !fell {
			t.Errorf("ExpInt(%v, %v): Exp = %.17g is within the kernel's error of an integer, but the fast path answered", c.u, c.mean, Exp(c.u, c.mean))
		}
	}
}

// TestExpIntMatchesExp compares ExpInt with int64(Exp) on 10⁷
// splitmix64 draws per mean and logs how often the fallback ran. The
// rounding test declines when an integer falls inside a ± d, about 2d of
// the time; d averages 2·mean·2⁻³⁷, so a rate above twice 4·mean·2⁻³⁷
// means the bound or the kernel has slipped.
func TestExpIntMatchesExp(t *testing.T) {
	const draws = 10_000_000
	for m, mean := range expIntMeans {
		fallbacks := 0
		exact := func(u, mean float64) int64 { fallbacks++; return expIntExact(u, mean) }
		bad := 0
		for i := uint64(0); i < draws; i++ {
			u := Unit(Mix(uint64(m)<<40 + i))
			if got, want := expInt(u, mean, exact), int64(Exp(u, mean)); got != want {
				if bad++; bad <= 5 {
					t.Errorf("mean %v: ExpInt(%v) = %d, want int64(Exp) = %d", mean, u, got, want)
				}
			}
		}
		if bad > 0 {
			t.Errorf("mean %v: %d of %d draws differ from int64(Exp)", mean, bad, draws)
		}
		rate := float64(fallbacks) / draws
		t.Logf("mean %-6g ns: fallback on %d of %d draws (%.2e)", mean, fallbacks, draws, rate)
		if limit := 2*math.Min(1, 4*mean*expIntSlack) + 1e-6; rate > limit {
			t.Errorf("mean %v: fallback rate %.2e, above %.2e", mean, rate, limit)
		}
	}
}

// FuzzExpIntMatchesExp checks ExpInt(u, mean) == int64(Exp(u, mean)) on
// any input, the edge cases seeding the corpus.
func FuzzExpIntMatchesExp(f *testing.F) {
	for _, c := range expIntEdgeCases() {
		f.Add(c.u, c.mean)
	}
	f.Fuzz(func(t *testing.T, u, mean float64) {
		if got, want := ExpInt(u, mean), int64(Exp(u, mean)); got != want {
			t.Fatalf("ExpInt(%v, %v) = %d, want int64(Exp) = %d", u, mean, got, want)
		}
	})
}

var benchSink int64

// BenchmarkExpInt times the kernel against its definition at the 300 µs
// jitter mean, on the uniforms Transit feeds it.
func BenchmarkExpInt(b *testing.B) {
	b.Run("ExpInt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += ExpInt(Unit(Mix(uint64(i))), 3e5)
		}
	})
	b.Run("int64(Exp)", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += int64(Exp(Unit(Mix(uint64(i))), 3e5))
		}
	})
}
