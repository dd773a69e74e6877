// Package detmath defines the simulator's deterministic draws: the
// SplitMix64 mixer (Steele, Lea & Flood, "Fast Splittable Pseudorandom
// Number Generators", OOPSLA 2014), the 53-bit uniform, the guarded
// exponential deviate and its integer twin. Each package that draws
// keeps its own stream shape and seed recipe and takes only these
// primitives from here. The package imports only math. Every exported
// function inlines; ExpInt inlines as one call to its table-log kernel,
// which is past the inliner's budget, and the kernel's exact fallback is
// kept out of line so that the fast path stays short.
package detmath

import "math"

// Gamma is SplitMix64's state increment, which Mix adds first: a stream
// stepping its state by Gamma draws Mix of the state before the step.
const Gamma = 0x9E3779B97F4A7C15

// Mix is splitmix64: x+Gamma through the SplitMix64 finalizer.
func Mix(x uint64) uint64 {
	x += Gamma
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Unit maps the top 53 bits of x to a uniform float64 in [0,1). The
// scaling is exact, and rounded explicitly all the same, so that an
// inlined caller's sum never fuses with it on any architecture.
func Unit(x uint64) float64 { return float64(float64(x>>11) * 0x1p-53) }

// Exp is the exponential deviate of the given mean at a uniform u in
// [0,1), reading u = 0 as 2⁻⁵³ so that the deviate stays finite.
func Exp(u, mean float64) float64 {
	if u <= 0 {
		u = 0x1p-53
	}
	return -mean * math.Log(u)
}

// ExpInt returns int64(Exp(u, mean)), exactly, on every architecture:
// the exponential deviate truncated to whole units, as a per-packet
// delay in nanoseconds is. It calls math.Log only when the truncation is
// in doubt (Ziv's rounding test, ACM TOMS 1991): a table log computes a
// with |a − Exp(u, mean)| ≤ d (see expInt), and when a−d and a+d
// truncate to the same integer, Exp's value, which lies between them,
// truncates to it too. Otherwise, on about one draw in 10⁵ at a 300 µs
// mean, it evaluates Exp itself.
func ExpInt(u, mean float64) int64 { return expInt(u, mean, expIntExact) }

// expIntExact is ExpInt's fallback and its definition.
//
//go:noinline
func expIntExact(u, mean float64) int64 { return int64(Exp(u, mean)) }

// expCells holds, for each of the 256 cells [1+i/256, 1+(i+1)/256) of a
// float64 significand, 1/c and ln c at the cell's midpoint c (Tang's
// table-driven log, ACM TOMS 1990). Each entry is rounded once.
var expCells = func() (t [256]struct{ invc, lnc float64 }) {
	for i := range t {
		c := cellMid(uint64(i) << 44)
		t[i].invc = float64(1 / c)
		t[i].lnc = math.Log(c)
	}
	return t
}()

// cellMid is the midpoint 1 + (2i+1)/512 of the significand cell whose
// index i sits in bits 44–51 of cell; it is exact.
func cellMid(cell uint64) float64 {
	return math.Float64frombits(0x3FF<<52 | cell | 1<<43)
}

// expIntSlack is the scale of expInt's error bound d = (1 − s)·mean·2⁻³⁷.
const expIntSlack = 0x1p-37

// expInt is ExpInt with its fallback as a parameter, so that a test can
// count the draws that take it. It computes s ≈ ln u from the table and
// a = −mean·s, and returns int64(a ± d) when the two agree. It leaves to
// exact every u outside [2⁻¹⁰²², 1) after the u ≤ 0 guard, every mean
// outside [2⁻⁵¹¹, 2⁴⁰) and NaNs. Every product is rounded by an explicit
// float64 conversion, so no architecture fuses it into a multiply-add
// and the bound below holds for the operations as written.
//
// Why |a − e| ≤ d, where e = Exp(u, mean) and L = ln u. Write u = 2ᵏ·m
// with m in [1, 2), c the midpoint of m's cell, f = m − c (exact, |f| ≤
// 2⁻⁹) and r = f·(1/c), so ln u = k·ln 2 + ln c + log1p(f/c):
//   - the cubic r − r²/2 + r³/3 misses log1p by at most |r|⁴/(4(1−|r|))
//     ≤ 1.01·2⁻³⁸; the rounding of 1/c, r and the cubic adds under 2⁻⁵⁸,
//     and the table's ln c, at most 1 ulp of math.Log, adds 2⁻⁵³;
//   - k·ln 2 and the three sums add at most 2⁻⁵⁰·(|L| + 1);
//   - so s has |s − L| ≤ 1.02·2⁻³⁸ + 2⁻⁵⁰·|L|, and a, the product −mean·s
//     rounded once, has |a + mean·L| ≤ 1.02·2⁻³⁸·mean + 2⁻⁴⁹·|a|;
//   - e is math.Log's result (≤ 1 ulp from L) times −mean, rounded once,
//     so |e + mean·L| ≤ 2⁻⁵¹·mean·|L|.
//
// Together |a − e| < 0.52·2⁻³⁷·mean + 2⁻⁴⁸·|a|, under d, which the roundings
// of (1 − s) and of its product with the exact mean·2⁻³⁷ leave above
// 0.99·2⁻³⁷·(mean + a): room for math.Log to be off by 2¹⁰ ulps.
// Rounding is monotone, so the rounded a ± d still bracket e, and so
// does truncation.
func expInt(u, mean float64, exact func(u, mean float64) int64) int64 {
	if u <= 0 {
		u = 0x1p-53
	}
	b, mb := math.Float64bits(u), math.Float64bits(mean)
	// One unsigned compare per range, which also turns away NaNs,
	// negatives and (for u) subnormals.
	const uMin, uEnd = 0x0010000000000000, 0x3FF0000000000000       // 2⁻¹⁰²², 1
	const meanMin, meanEnd = 0x2000000000000000, 0x4270000000000000 // 2⁻⁵¹¹, 2⁴⁰
	if b-uMin < uEnd-uMin && mb-meanMin < meanEnd-meanMin {
		cell := b & (0xFF << 44)
		t := &expCells[cell>>44]
		hi := float64(float64(int64(b>>52)-0x3FF)*math.Ln2) + t.lnc
		f := math.Float64frombits(0x3FF<<52|b&(1<<52-1)) - cellMid(cell)
		r := float64(f * t.invc)
		s := hi + (r + float64(float64(r*r)*(float64(r*(1.0/3))-0.5)))
		a := float64(-mean * s)
		d := float64((1 - s) * float64(mean*expIntSlack))
		if lo := int64(a - d); lo == int64(a+d) {
			return lo
		}
	}
	return exact(u, mean)
}
