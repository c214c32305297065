// Package rngstream derives independent per-site PRNG seeds from a
// single cell seed, and holds the one SplitMix64 generator and
// finalizer the simulator's components draw from.
//
// A simulation cell owns one Seed, but several components inside it
// need private randomness: the PARA coin-flipper, MINT's interval
// sampler, the Hydra address cipher, the row-swap policy, the chaos
// injector. Handing each of them the raw cell seed aliases their
// streams — two generators stepping the same recurrence from the same
// state produce correlated (here: identical) sequences, so e.g. PARA's
// mitigation coin flips line up with MINT's interval picks and the
// measured failure rates are not independent draws at all.
//
// Derive folds a site label into the seed so every site gets its own
// stream, while a cell's behaviour remains a pure function of
// (Seed, site): same cell seed, same site, same stream — across
// processes and runs.
package rngstream

// fnv1a hashes the site label (FNV-1a 64-bit).
func fnv1a(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Mix is the SplitMix64 finalizer: a full-avalanche bijection, so
// distinct inputs map to distinct outputs and a one-bit change in the
// input flips about half the output bits. Mix(x) is the draw a
// SplitMix64 generator in state x returns next.
func Mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SplitMix64 is the SplitMix64 generator: a Weyl sequence with step
// 0x9e3779b97f4a7c15 through the Mix finalizer. Seed it by setting
// State; the trace generators, the probabilistic trackers, Hydra's
// row-cipher round keys and the row-swap mitigator all draw from it.
type SplitMix64 struct{ State uint64 }

// Next returns the next draw and advances the state.
func (s *SplitMix64) Next() uint64 {
	x := s.State
	s.State += 0x9e3779b97f4a7c15
	return Mix(x)
}

// Derive returns the seed for the named site within the cell identified
// by seed. Two rounds of mixing: one over the label hash alone (so
// seed=0 still separates sites), one folding in the cell seed.
func Derive(seed uint64, site string) uint64 {
	return Mix(Mix(fnv1a(site)) ^ seed)
}

// DeriveNonzero is Derive for consumers whose generator state must not
// be zero (xorshift-family recurrences are stuck at 0 forever). The
// low bit is forced on, matching the convention the chaos injector
// used before this package existed.
func DeriveNonzero(seed uint64, site string) uint64 {
	return Derive(seed, site) | 1
}
