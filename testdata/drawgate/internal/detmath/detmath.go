package detmath

// Mix is the one copy the gate allows.
func Mix(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	return (x ^ (x >> 27)) * 0x94d049bb133111eb
}

// Unit is the one 2⁻⁵³ scale the gate allows.
func Unit(x uint64) float64 { return float64(x>>11) * 0x1p-53 }
