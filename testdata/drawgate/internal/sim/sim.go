package sim

// mix is a private splitmix64 copy, spelled with digit separators.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xbf58_476d_1ce4_e5b9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func unit(x uint64) float64 { return float64(mix(x)>>11) / (1 << 53) }

func unitDecimal(x uint64) float64 { return float64(x>>11) / 9007199254740992 }

func unitFloat(x uint64) float64 { return float64(x>>11) * 1.1102230246251565e-16 }

// None of these is the 2⁻⁵³ scale.
func shifts(x uint64) uint64 { return x<<53 | 1<<52 | 2<<53 | x>>53 }
