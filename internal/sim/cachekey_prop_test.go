package sim

// Cache-key sensitivity machine: where FuzzCacheKey flips a handful of
// fields under fuzzer-chosen values, this property draws a generated
// base configuration and a mutation from a catalog covering *every*
// field CanonicalString renders — each Mem and Profile subfield, every
// tracker knob, the Attack and Chaos subfields and their nil-ness —
// and requires the key to move. A collision means two configurations
// that compute different results would dedupe to one cache cell, which
// silently replays the wrong Result. The identity direction (no
// mutation → equal keys) runs on every case too.

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/proptest"
)

// keyMutation perturbs exactly one result-affecting field. Mutations
// use value swaps (not arithmetic) so they can never be no-ops.
type keyMutation struct {
	name string
	mut  func(*Config)
}

func swapInt(p *int)    { *p = *p ^ 0x55a }
func swapI64(p *int64)  { *p = *p ^ 0x55a }
func swapBool(p *bool)  { *p = !*p }
func swapStr(p *string) { *p = *p + "~" }

// swapF swaps between two sentinels rather than doing arithmetic, which
// can be a no-op at float extremes (1e300+0.125 == 1e300).
func swapF(p *float64) {
	if *p == 12345.5 {
		*p = 54321.5
	} else {
		*p = 12345.5
	}
}

func keyMutations() []keyMutation {
	return []keyMutation{
		{"Mem.Channels", func(c *Config) { swapInt(&c.Mem.Channels) }},
		{"Mem.RanksPerChannel", func(c *Config) { swapInt(&c.Mem.RanksPerChannel) }},
		{"Mem.BanksPerRank", func(c *Config) { swapInt(&c.Mem.BanksPerRank) }},
		{"Mem.RowsPerBank", func(c *Config) { swapInt(&c.Mem.RowsPerBank) }},
		{"Mem.RowBytes", func(c *Config) { swapInt(&c.Mem.RowBytes) }},
		{"Profile.Name", func(c *Config) { swapStr(&c.Profile.Name) }},
		{"Profile.Suite", func(c *Config) { c.Profile.Suite += "~" }},
		{"Profile.MPKI", func(c *Config) { swapF(&c.Profile.MPKI) }},
		{"Profile.UniqueRows", func(c *Config) { swapInt(&c.Profile.UniqueRows) }},
		{"Profile.Hot250", func(c *Config) { swapInt(&c.Profile.Hot250) }},
		{"Profile.ActsPerRow", func(c *Config) { swapF(&c.Profile.ActsPerRow) }},
		{"Scale", func(c *Config) { swapF(&c.Scale) }},
		{"KeepStructSize", func(c *Config) { swapBool(&c.KeepStructSize) }},
		{"Cores", func(c *Config) { swapInt(&c.Cores) }},
		{"TRH", func(c *Config) { swapInt(&c.TRH) }},
		{"Seed", func(c *Config) { c.Seed ^= 0x55a }},
		{"Tracker", func(c *Config) { c.Tracker += "~" }},
		{"CRACacheBytes", func(c *Config) { swapInt(&c.CRACacheBytes) }},
		{"HydraGCTEntries", func(c *Config) { swapInt(&c.HydraGCTEntries) }},
		{"HydraTG", func(c *Config) { swapInt(&c.HydraTG) }},
		{"HydraRandomize", func(c *Config) { swapBool(&c.HydraRandomize) }},
		{"WindowCycles", func(c *Config) { swapI64(&c.WindowCycles) }},
		{"Mitigation", func(c *Config) { c.Mitigation += "~" }},
		{"Attack.nil", func(c *Config) {
			if c.Attack == nil {
				c.Attack = &AttackSpec{}
			} else {
				c.Attack = nil
			}
		}},
		{"Attack.Rows", func(c *Config) {
			if c.Attack == nil {
				c.Attack = &AttackSpec{}
			}
			c.Attack.Rows = append(c.Attack.Rows, 99)
		}},
		{"Attack.Acts", func(c *Config) {
			if c.Attack == nil {
				c.Attack = &AttackSpec{}
			}
			c.Attack.Acts ^= 0x55a
		}},
		{"Chaos.nil", func(c *Config) {
			if c.Chaos == nil {
				c.Chaos = &faults.Scenario{}
			} else {
				c.Chaos = nil
			}
		}},
		{"Chaos.Name", func(c *Config) {
			if c.Chaos == nil {
				c.Chaos = &faults.Scenario{}
			}
			c.Chaos.Name += "~"
		}},
		{"Chaos.DropRefreshProb", func(c *Config) {
			if c.Chaos == nil {
				c.Chaos = &faults.Scenario{}
			}
			swapF(&c.Chaos.DropRefreshProb)
		}},
		{"Chaos.PostponeWindows", func(c *Config) {
			if c.Chaos == nil {
				c.Chaos = &faults.Scenario{}
			}
			swapF(&c.Chaos.PostponeWindows)
		}},
		{"Chaos.CorruptRCTFrac", func(c *Config) {
			if c.Chaos == nil {
				c.Chaos = &faults.Scenario{}
			}
			swapF(&c.Chaos.CorruptRCTFrac)
		}},
		{"Chaos.CorruptEveryActs", func(c *Config) {
			if c.Chaos == nil {
				c.Chaos = &faults.Scenario{}
			}
			swapI64(&c.Chaos.CorruptEveryActs)
		}},
	}
}

// genKeyConfig draws a cacheable base configuration: the default knobs
// with a generated subset perturbed, plus optional Attack/Chaos specs,
// so the catalog is exercised from many base points (a rendering bug
// can hide at one base value and show at another — e.g. a field only
// swallowed when its neighbour is empty).
func genKeyConfig(t *proptest.T) Config {
	c := keyConfig()
	c.Profile.Name = []string{"parest", "", "a=b\nc"}[proptest.IntRange(0, 2).Draw(t, "name")]
	c.Scale = float64(proptest.IntRange(1, 64).Draw(t, "scale"))
	c.Cores = proptest.IntRange(1, 16).Draw(t, "cores")
	c.TRH = proptest.IntRange(1, 5000).Draw(t, "trh")
	c.Seed = proptest.Uint64().Draw(t, "seed")
	c.Tracker = TrackerKind([]string{"hydra", "para", "start", ""}[proptest.IntRange(0, 3).Draw(t, "tracker")])
	c.Profile.ActsPerRow = float64(proptest.IntRange(0, 4).Draw(t, "actsPerRow")) / 4
	c.WindowCycles = int64(proptest.IntRange(0, 1<<20).Draw(t, "window"))
	if proptest.Bool().Draw(t, "withAttack") {
		n := proptest.IntRange(0, 4).Draw(t, "attackRows")
		rows := make([]uint32, n)
		for i := range rows {
			rows[i] = uint32(proptest.IntRange(0, 1<<16).Draw(t, "row"))
		}
		c.Attack = &AttackSpec{Rows: rows, Acts: proptest.IntRange(0, 1<<20).Draw(t, "acts")}
	}
	if proptest.Bool().Draw(t, "withChaos") {
		c.Chaos = &faults.Scenario{
			Name:            "gen",
			DropRefreshProb: float64(proptest.IntRange(0, 8).Draw(t, "drop")) / 8,
		}
	}
	return c
}

func cacheKeySensitivityProp(tb testing.TB) func(*proptest.T) {
	muts := keyMutations()
	return func(t *proptest.T) {
		c := genKeyConfig(t)
		base, ok := c.CacheKey()
		if !ok {
			t.Fatalf("generated config must be cacheable")
		}
		if again, _ := c.CacheKey(); again != base {
			t.Fatalf("hashing the same value twice diverged: %s vs %s", base, again)
		}
		m := muts[proptest.IntRange(0, len(muts)-1).Draw(t, "mutation")]
		mc := c
		m.mut(&mc)
		after, ok := mc.CacheKey()
		if !ok {
			t.Fatalf("mutation %s made the config uncacheable", m.name)
		}
		if after == base {
			t.Fatalf("mutating %s left the cache key unchanged (%s):\n%s", m.name, base, mc.CanonicalString())
		}
	}
}

// TestCacheKeySensitivityMachine requires every single-field mutation
// in the catalog to move the cache key, from generated base configs.
func TestCacheKeySensitivityMachine(t *testing.T) {
	proptest.Check(t, cacheKeySensitivityProp(t))
}

// TestCacheKeyMutationCatalogCovers pins the catalog against the
// canonical surface: every line CanonicalString emits must have at
// least one mutation targeting a field on it, so a new hashed field
// cannot land without a sensitivity check. (The 21-field reflection pin
// in cachekey_test.go catches fields added to Config but not hashed.)
func TestCacheKeyMutationCatalogCovers(t *testing.T) {
	if n := len(keyMutations()); n < 32 {
		t.Fatalf("mutation catalog shrank to %d entries; it must cover every CanonicalString field", n)
	}
}
