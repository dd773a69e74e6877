package fec

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestGFFieldAxioms(t *testing.T) {
	// Spot-check field behaviour exhaustively where cheap.
	for a := 0; a < 256; a++ {
		if gfMul(byte(a), 1) != byte(a) {
			t.Fatalf("1 is not multiplicative identity for %d", a)
		}
		if gfMul(byte(a), 0) != 0 {
			t.Fatalf("0 not absorbing for %d", a)
		}
		if a != 0 {
			if gfMul(byte(a), gfInv(byte(a))) != 1 {
				t.Fatalf("inverse broken for %d", a)
			}
			if gfDiv(byte(a), byte(a)) != 1 {
				t.Fatalf("a/a != 1 for %d", a)
			}
		}
	}
	// Commutativity and associativity on random triples.
	f := func(a, b, c byte) bool {
		if gfMul(a, b) != gfMul(b, a) {
			return false
		}
		return gfMul(gfMul(a, b), c) == gfMul(a, gfMul(b, c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// Distributivity over XOR (field addition).
	g := func(a, b, c byte) bool {
		return gfMul(a, b^c) == gfMul(a, b)^gfMul(a, c)
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestGFDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("gfDiv(x, 0) did not panic")
		}
	}()
	gfDiv(5, 0)
}

func TestGFPow(t *testing.T) {
	if gfPow(2, 0) != 1 || gfPow(0, 5) != 0 {
		t.Error("gfPow edge cases wrong")
	}
	// a^255 == 1 for nonzero a (multiplicative group order).
	for a := 1; a < 256; a++ {
		if gfPow(byte(a), 255) != 1 {
			t.Fatalf("a^255 != 1 for a=%d", a)
		}
	}
}

func TestMatrixInvertIdentity(t *testing.T) {
	for n := 1; n <= 8; n++ {
		id := identity(n)
		inv, err := id.invert()
		if err != nil {
			t.Fatalf("invert identity(%d): %v", n, err)
		}
		if !bytes.Equal(inv.d, id.d) {
			t.Errorf("identity(%d) inverse wrong", n)
		}
	}
}

func TestMatrixInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		m := newMatrix(n, n)
		for i := range m.d {
			m.d[i] = byte(rng.Intn(256))
		}
		inv, err := m.invert()
		if err != nil {
			continue // singular random matrix: fine
		}
		prod := m.mul(inv)
		if !bytes.Equal(prod.d, identity(n).d) {
			t.Fatalf("M × M⁻¹ != I for n=%d", n)
		}
	}
}

func TestMatrixSingular(t *testing.T) {
	m := newMatrix(2, 2) // all zero
	if _, err := m.invert(); err == nil {
		t.Error("singular matrix inverted")
	}
}

func TestNewCodeValidation(t *testing.T) {
	for _, c := range [][2]int{{0, 1}, {1, -1}, {200, 100}} {
		if _, err := NewCode(c[0], c[1]); err == nil {
			t.Errorf("NewCode(%d,%d) accepted", c[0], c[1])
		}
	}
	c, err := NewCode(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.K() != 5 || c.M() != 1 {
		t.Error("dimensions wrong")
	}
}

func randShards(rng *rand.Rand, k, size int) [][]byte {
	out := make([][]byte, k)
	for i := range out {
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}

func TestEncodeSystematic(t *testing.T) {
	c, _ := NewCode(4, 2)
	rng := rand.New(rand.NewSource(3))
	data := randShards(rng, 4, 64)
	shards, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 6 {
		t.Fatalf("shard count = %d", len(shards))
	}
	for i := 0; i < 4; i++ {
		if !bytes.Equal(shards[i], data[i]) {
			t.Errorf("data shard %d modified (code not systematic)", i)
		}
	}
}

func TestReconstructAllErasurePatterns(t *testing.T) {
	// For a (4,2) code, every pattern of ≤2 erasures must reconstruct
	// exactly. Exhaustive over all C(6,1)+C(6,2)=21 patterns.
	c, _ := NewCode(4, 2)
	rng := rand.New(rand.NewSource(4))
	data := randShards(rng, 4, 48)
	full, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	patterns := [][]int{}
	for i := 0; i < 6; i++ {
		patterns = append(patterns, []int{i})
		for j := i + 1; j < 6; j++ {
			patterns = append(patterns, []int{i, j})
		}
	}
	for _, pat := range patterns {
		shards := make([][]byte, 6)
		for i := range full {
			shards[i] = append([]byte(nil), full[i]...)
		}
		for _, e := range pat {
			shards[e] = nil
		}
		if err := c.Reconstruct(shards); err != nil {
			t.Fatalf("pattern %v: %v", pat, err)
		}
		for i := range full {
			if !bytes.Equal(shards[i], full[i]) {
				t.Fatalf("pattern %v: shard %d wrong after reconstruction", pat, i)
			}
		}
	}
}

func TestReconstructPropertyRandomCodes(t *testing.T) {
	// Property: for random (k, m) and any ≤m random erasures, the data
	// shards always reconstruct bit-exactly.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		k := 1 + rng.Intn(10)
		m := rng.Intn(6)
		c, err := NewCode(k, m)
		if err != nil {
			t.Fatal(err)
		}
		data := randShards(rng, k, 1+rng.Intn(200))
		full, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		orig := make([][]byte, len(full))
		for i := range full {
			orig[i] = append([]byte(nil), full[i]...)
		}
		erasures := rng.Intn(m + 1)
		shards := make([][]byte, len(full))
		copy(shards, full)
		for e := 0; e < erasures; e++ {
			shards[rng.Intn(len(shards))] = nil
		}
		if err := c.Reconstruct(shards); err != nil {
			t.Fatalf("k=%d m=%d erasures=%d: %v", k, m, erasures, err)
		}
		for i := range orig {
			if !bytes.Equal(shards[i], orig[i]) {
				t.Fatalf("k=%d m=%d: shard %d corrupted", k, m, i)
			}
		}
	}
}

func TestReconstructFailsBeyondCapacity(t *testing.T) {
	c, _ := NewCode(3, 1)
	rng := rand.New(rand.NewSource(6))
	full, _ := c.Encode(randShards(rng, 3, 16))
	shards := make([][]byte, 4)
	copy(shards, full)
	shards[0], shards[2] = nil, nil // two erasures, one parity
	if err := c.Reconstruct(shards); err == nil {
		t.Error("reconstruction beyond capacity succeeded")
	}
}

func TestCodecErrors(t *testing.T) {
	c, _ := NewCode(2, 1)
	if _, err := c.Encode([][]byte{{1}}); err == nil {
		t.Error("wrong data shard count accepted")
	}
	if _, err := c.Encode([][]byte{{1, 2}, {3}}); err == nil {
		t.Error("ragged shards accepted")
	}
	if _, err := c.Encode([][]byte{{}, {}}); err == nil {
		t.Error("empty shards accepted")
	}
	if err := c.Reconstruct(make([][]byte, 5)); err == nil {
		t.Error("wrong total shard count accepted")
	}
	// Ragged present shards.
	full, _ := c.Encode([][]byte{{1, 2}, {3, 4}})
	full[1] = full[1][:1]
	if err := c.Reconstruct(full); err == nil {
		t.Error("ragged reconstruction input accepted")
	}
}

func TestReconstructNoErasuresIsNoop(t *testing.T) {
	c, _ := NewCode(3, 2)
	rng := rand.New(rand.NewSource(8))
	full, _ := c.Encode(randShards(rng, 3, 8))
	before := make([][]byte, len(full))
	for i := range full {
		before[i] = append([]byte(nil), full[i]...)
	}
	if err := c.Reconstruct(full); err != nil {
		t.Fatal(err)
	}
	for i := range full {
		if !bytes.Equal(full[i], before[i]) {
			t.Error("no-op reconstruction modified shards")
		}
	}
}

func TestZeroParityCode(t *testing.T) {
	c, err := NewCode(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	data := randShards(rng, 4, 10)
	full, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 4 {
		t.Error("m=0 code should add nothing")
	}
}

func TestEvenSpread(t *testing.T) {
	s, err := EvenSpread(5, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if s.Offsets[0] != 0 || s.Offsets[4] != 400*time.Millisecond {
		t.Errorf("spread = %v", s.Offsets)
	}
	for i := 1; i < 5; i++ {
		if s.Offsets[i] <= s.Offsets[i-1] {
			t.Error("offsets not increasing")
		}
	}
	if _, err := EvenSpread(0, time.Second); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := EvenSpread(2, -time.Second); err == nil {
		t.Error("negative span accepted")
	}
	one, _ := EvenSpread(1, time.Second)
	if one.Offsets[0] != 0 {
		t.Error("single shard should send immediately")
	}
}

func TestDataFirst(t *testing.T) {
	s, err := DataFirst(5, 1, 480*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if s.Offsets[i] != 0 {
			t.Error("data shards must go out immediately (§5.2 standard codes)")
		}
	}
	if s.Offsets[5] != 480*time.Millisecond {
		t.Errorf("parity offset = %v, want 480ms", s.Offsets[5])
	}
	if _, err := DataFirst(0, 1, time.Second); err == nil {
		t.Error("k=0 accepted")
	}
}
