// Package detmath defines the simulator's deterministic draws: the
// SplitMix64 mixer (Steele, Lea & Flood, "Fast Splittable Pseudorandom
// Number Generators", OOPSLA 2014), the 53-bit uniform and the guarded
// exponential deviate. Each package that draws keeps its own stream
// shape and seed recipe and takes only these primitives from here. The
// package imports only math, and every function inlines.
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

// Unit maps the top 53 bits of x to a uniform float64 in [0,1).
func Unit(x uint64) float64 { return float64(x>>11) * 0x1p-53 }

// Exp is the exponential deviate of the given mean at a uniform u in
// [0,1), reading u = 0 as 2⁻⁵³ so that the deviate stays finite.
func Exp(u, mean float64) float64 {
	if u <= 0 {
		u = 0x1p-53
	}
	return -mean * math.Log(u)
}
