package detmath

import (
	"math"
	"testing"
	"testing/quick"
)

// The expected values below were recorded from the per-package copies
// these functions replaced, so a change here that would move a bit of
// any simulated table fails first.

func TestMixKnownAnswers(t *testing.T) {
	for _, c := range []struct{ in, want uint64 }{
		{0, 0xe220a8397b1dcdaf},
		{1, 0x910a2dec89025cc1},
		{0x123456789abcdef0, 0x161922c645ce50e8},
		{^uint64(0), 0xe4d971771b652c20},
	} {
		if got := Mix(c.in); got != c.want {
			t.Errorf("Mix(%#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

func TestUnitKnownAnswers(t *testing.T) {
	for _, c := range []struct {
		in   uint64
		want uint64 // float64 bits
	}{
		{0, 0},
		{1 << 11, 0x3ca0000000000000}, // 2⁻⁵³, the smallest non-zero draw
		{^uint64(0), 0x3fefffffffffffff},
		{0x123456789abcdef0, 0x3fb23456789abcd8},
	} {
		if got := math.Float64bits(Unit(c.in)); got != c.want {
			t.Errorf("Unit(%#x) bits = %#x, want %#x", c.in, got, c.want)
		}
	}
}

func TestExpKnownAnswers(t *testing.T) {
	for _, c := range []struct {
		u, mean float64
		want    uint64 // float64 bits
	}{
		{Unit(Mix(1)), 1000, 0x4081c15b28428423},
		{Unit(Mix(2)), 250, 0x40606cf2398edfa5},
		{Unit(Mix(0x9e37)), 3.5, 0x401e0feed294c6d9},
		{0, 1000, 0x40e1f0199e444caa}, // the guard: u read as 2⁻⁵³
		{0.5, 2, 0x3ff62e42fefa39ef},  // Box–Muller's -2·ln u₁
	} {
		if got := math.Float64bits(Exp(c.u, c.mean)); got != c.want {
			t.Errorf("Exp(%v, %v) bits = %#x, want %#x", c.u, c.mean, got, c.want)
		}
	}
}

func TestExpDeterministicAndNonNegative(t *testing.T) {
	f := func(key uint64) bool {
		v := Exp(Unit(Mix(key)), 1000)
		return v >= 0 && v == Exp(Unit(Mix(key)), 1000)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if v := Exp(0, 1000); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Errorf("Exp(0, 1000) = %v, want the finite guarded deviate", v)
	}
}
