package main

// The pinned benchmark keeps its own copy.
func mix(x uint64) uint64 { return (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9 }

func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }
