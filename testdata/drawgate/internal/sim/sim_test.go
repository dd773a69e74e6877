package sim

// A test may hold a reference copy.
func refMix(x uint64) uint64 { return (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 }
