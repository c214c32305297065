package rngstream

import "testing"

// The sites sim.go seeds. Kept in one place so the aliasing test and
// the golden pin cover exactly the labels in production use.
var simSites = []string{
	"sim/chaos",
	"sim/rowswap",
	"tracker/hydra-cipher",
	"tracker/mint",
	"tracker/para",
}

// TestSitesDoNotAlias is the property the package exists for: distinct
// sites under the same cell seed get distinct seeds, including at the
// degenerate cell seeds 0 and ^0.
func TestSitesDoNotAlias(t *testing.T) {
	for _, seed := range []uint64{0, 1, ^uint64(0), 0xdeadbeef} {
		got := map[uint64]string{}
		for _, site := range simSites {
			d := Derive(seed, site)
			if prev, dup := got[d]; dup {
				t.Fatalf("seed %#x: sites %q and %q derive the same stream %#x", seed, prev, site, d)
			}
			got[d] = site
			if d == seed {
				t.Errorf("seed %#x: site %q derived the raw cell seed — aliases every raw-seed consumer", seed, site)
			}
		}
	}
}

// TestSeedsSeparateWithinSite: the same site under different cell seeds
// must give different streams (cells must not share randomness).
func TestSeedsSeparateWithinSite(t *testing.T) {
	for _, site := range simSites {
		if Derive(1, site) == Derive(2, site) {
			t.Fatalf("site %q: cell seeds 1 and 2 derive the same stream", site)
		}
	}
}

func TestDeriveNonzero(t *testing.T) {
	for seed := uint64(0); seed < 1000; seed++ {
		if DeriveNonzero(seed, "x") == 0 {
			t.Fatalf("DeriveNonzero returned 0 for seed %d", seed)
		}
	}
}

// TestDeriveGolden pins Derive's exact outputs. Derive is part of every
// simulation's semantics: changing it silently changes what each Seed
// computes, which must come with a CacheKeyVersion bump (see
// internal/sim/cachekey.go) — this pin makes the change loud.
func TestDeriveGolden(t *testing.T) {
	golden := []struct {
		seed uint64
		site string
		want uint64
	}{
		{0x0, "sim/chaos", 0x6448bd6c3759d947},
		{0x0, "sim/rowswap", 0x1a545689b321f80a},
		{0x1, "sim/chaos", 0x1cc89a0d85644b8f},
		{0x1, "tracker/para", 0x18b17776ac63f3a5},
		{0xdeadbeef, "tracker/hydra-cipher", 0x36f4699a5bd7bfe8},
		{0xdeadbeef, "tracker/mint", 0x302416affccae127},
	}
	for _, g := range golden {
		if got := Derive(g.seed, g.site); got != g.want {
			t.Errorf("Derive(%#x, %q) = %#x, want %#x — if intentional, bump sim.CacheKeyVersion",
				g.seed, g.site, got, g.want)
		}
	}
}

// TestSplitMix64ReferenceSequence pins the generator to the published
// SplitMix64 outputs for seed 0, so a mistyped constant cannot pass,
// and pins Mix(x) as the draw a generator in state x returns.
func TestSplitMix64ReferenceSequence(t *testing.T) {
	g := SplitMix64{}
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		state := g.State
		if got := g.Next(); got != want || got != Mix(state) {
			t.Fatalf("draw %d = %#x (Mix of its state %#x), want %#x", i, got, Mix(state), want)
		}
	}
}
