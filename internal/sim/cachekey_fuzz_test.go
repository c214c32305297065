package sim

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/workload"
)

// fuzzConfig builds a cacheable config entirely from fuzzer-chosen
// values, exercising the canonical rendering across the whole value
// space (negative sizes, NaN-free float extremes, empty and long
// strings, nil versus zero-valued pointers).
func fuzzConfig(name string, suite string, mpki float64, rows int, scale float64,
	cores int, trh int, seed uint64, tracker string, gct int, wfrac float64,
	window int64, withAttack bool, acts int, withChaos bool, drop float64) Config {
	c := keyConfig()
	c.Profile.Name = name
	c.Profile.Suite = workload.Suite(suite)
	c.Profile.MPKI = mpki
	c.Profile.UniqueRows = rows
	c.Scale = scale
	c.Cores = cores
	c.TRH = trh
	c.Seed = seed
	c.Tracker = TrackerKind(tracker)
	c.HydraGCTEntries = gct
	c.WriteFrac = wfrac
	c.WindowCycles = window
	if withAttack {
		c.Attack = &AttackSpec{Rows: []uint32{1, 2}, Acts: acts}
	}
	if withChaos {
		c.Chaos = &faults.Scenario{Name: "fz", DropRefreshProb: drop}
	}
	return c
}

// FuzzCacheKey checks the two canonicalization invariants over
// arbitrary field values: building the same configuration twice always
// produces the same key (no map-order or formatting instability), and
// flipping any single result-affecting field always produces a
// different key (no two distinct configurations collide by rendering
// to the same preimage — e.g. a field boundary swallowed by a
// neighbouring string).
func FuzzCacheKey(f *testing.F) {
	f.Add("parest", "spec", 24.2, 43008, 16.0, 8, 500, uint64(1), "hydra", 0, 0.25, int64(0), false, 0, false, 0.0)
	f.Add("", "", -1.0, -5, 0.5, 1, 1, uint64(0), "", 128, 1.0, int64(1), true, 100, true, 0.5)
	f.Add("a\nb=c/d\"e", "micro", 1e300, 1<<40, 1e-9, 1000, 1<<30, ^uint64(0), "x y", -1, -0.5, int64(-1), true, -7, true, -0.1)
	f.Fuzz(func(t *testing.T, name string, suite string, mpki float64, rows int,
		scale float64, cores int, trh int, seed uint64, tracker string, gct int,
		wfrac float64, window int64, withAttack bool, acts int, withChaos bool, drop float64) {
		if mpki != mpki || wfrac != wfrac || scale != scale || drop != drop {
			t.Skip("NaN never round-trips equal; configs are built from real measurements")
		}
		build := func() Config {
			return fuzzConfig(name, suite, mpki, rows, scale, cores, trh, seed,
				tracker, gct, wfrac, window, withAttack, acts, withChaos, drop)
		}
		base, ok := build().CacheKey()
		if !ok {
			t.Fatal("fuzz config must be cacheable: no Observer/Trace/Traces are set")
		}
		if again, _ := build().CacheKey(); again != base {
			t.Fatalf("same inputs hashed twice: %s vs %s", base, again)
		}
		// Single-field flips must always move the key.
		flips := map[string]func(*Config){
			"Profile.Name": func(c *Config) { c.Profile.Name += "\x00" },
			"Seed":         func(c *Config) { c.Seed ^= 1 },
			"Scale": func(c *Config) {
				// Arithmetic flips can be no-ops at float extremes
				// (1e300+1 == 1e300); swap between sentinels instead.
				if c.Scale == 12345.5 {
					c.Scale = 54321.5
				} else {
					c.Scale = 12345.5
				}
			},
			"Tracker":      func(c *Config) { c.Tracker += "z" },
			"WindowCycles": func(c *Config) { c.WindowCycles ^= 1 },
			"Attack":       func(c *Config) { c.Attack = nil },
			"Chaos":        func(c *Config) { c.Chaos = nil },
		}
		for fname, flip := range flips {
			c := build()
			before, _ := c.CacheKey()
			flip(&c)
			after, _ := c.CacheKey()
			if before == after && !unchangedByFlip(fname, withAttack, withChaos) {
				t.Fatalf("flipping %s left the key unchanged (%s)", fname, before)
			}
		}
	})
}

// unchangedByFlip reports flips that are no-ops for this input (nil-ing
// an Attack/Chaos that was never set).
func unchangedByFlip(field string, withAttack, withChaos bool) bool {
	return (field == "Attack" && !withAttack) || (field == "Chaos" && !withChaos)
}
