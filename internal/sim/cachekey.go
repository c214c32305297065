package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// CacheKeyVersion tags every cache key with the simulation-semantics
// generation. Bump it whenever a change alters what any configuration
// would compute — timing model fixes, tracker behaviour changes, new
// result fields — so stale on-disk cache entries from older binaries
// can never be replayed as current results. Purely structural changes
// (refactors proven result-identical) keep the version.
// v2: added the START/MINT/DAPPER trackers and their config knobs
// (STARTLLCBytes, MINTIntervalActs) to the hashed fields.
// v3: per-site RNG streams (internal/rngstream). PARA, MINT, the Hydra
// address cipher, row-swap and chaos previously all consumed the raw
// cell Seed, so their streams were correlated; every seeded
// configuration now computes different (decorrelated) results. Also
// v3: the memsim scheduler keeps bank buckets in submission order even
// when arrival timestamps run backward (the out-of-order-arrival
// leapfrog fix), which changes results for runs that submit
// future-dated requests — the throttle mitigation policy.
// v4: the run loop advances memory in bulk-synchronous epochs with
// tracker callbacks replayed at the epoch barrier (the channel-parallel
// engine; docs/PERFORMANCE.md). Tracker feedback — victim refreshes and
// metadata traffic — enters the queues up to one controller lookahead
// (~a hundred cycles) later than under the old per-event interleaving,
// shifting results for every configuration with a tracker. The v4
// engine also had a Parallel knob, left out of the hash because
// parallel and serial execution computed bitwise-identical results;
// the channel fan-out and its knob were deleted later (CHANGES.md, the
// one-memory-engine change), and the channels now always step on the
// caller's goroutine.
// v5: Graphene, DAPPER and START replace the entry listed last at the
// spillover floor; the victim used to be whichever entry Go's map order
// produced, so a cell whose table filled computed a different result on
// each run. Also v5: core.ForThreshold rounds the RCC up to whole
// 16-way sets. Still v5: eight knobs that every caller left at one
// value (blast radius, RCC size, PARA's failure probability, START's
// LLC bytes, MINT's interval, the RIT-ACT switch, write fraction and
// burst) became constants and left the rendering; every key's preimage
// changed but no configuration computes anything different.
const CacheKeyVersion = "hydra-cell/v5"

// Cacheable reports whether a run's outcome is fully determined by the
// fields CanonicalString hashes. Runs with side-effecting attachments
// are not: an Observer must see every activation (replaying a cached
// Result would silently skip its callbacks), a Tracer must record the
// event stream, and external trace sources are opaque readers whose
// content cannot be hashed.
func (c Config) Cacheable() bool {
	return c.Observer == nil && c.Trace == nil && len(c.Traces) == 0
}

// CanonicalString renders every result-affecting field of the
// configuration in a fixed order and format, independent of how the
// Config value was built. It is the preimage of CacheKey and is
// exposed for debugging cache behaviour ("why did these two cells not
// dedupe?"). Ctx and Progress are excluded — they control
// cancellation and watchdog reporting, never the computed Result — as
// are the unhashable attachments that Cacheable gates on.
func (c Config) CanonicalString() string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "version=%s\n", CacheKeyVersion)
	fmt.Fprintf(&b, "mem=%d/%d/%d/%d/%d\n",
		c.Mem.Channels, c.Mem.RanksPerChannel, c.Mem.BanksPerRank, c.Mem.RowsPerBank, c.Mem.RowBytes)
	fmt.Fprintf(&b, "profile=%q/%q/%s/%d/%d/%s\n",
		c.Profile.Name, string(c.Profile.Suite), g(c.Profile.MPKI),
		c.Profile.UniqueRows, c.Profile.Hot250, g(c.Profile.ActsPerRow))
	fmt.Fprintf(&b, "scale=%s keep=%t cores=%d trh=%d seed=%d\n",
		g(c.Scale), c.KeepStructSize, c.Cores, c.TRH, c.Seed)
	fmt.Fprintf(&b, "tracker=%q cra=%d gct=%d tg=%d rand=%t\n",
		string(c.Tracker), c.CRACacheBytes, c.HydraGCTEntries, c.HydraTG, c.HydraRandomize)
	fmt.Fprintf(&b, "window=%d policy=%q\n", c.WindowCycles, string(c.Mitigation))
	if c.Attack == nil {
		b.WriteString("attack=nil\n")
	} else {
		fmt.Fprintf(&b, "attack=%v/%d\n", c.Attack.Rows, c.Attack.Acts)
	}
	if c.Chaos == nil {
		b.WriteString("chaos=nil\n")
	} else {
		fmt.Fprintf(&b, "chaos=%q/%s/%s/%s/%d\n",
			c.Chaos.Name, g(c.Chaos.DropRefreshProb), g(c.Chaos.PostponeWindows),
			g(c.Chaos.CorruptRCTFrac), c.Chaos.CorruptEveryActs)
	}
	return b.String()
}

// CacheKey returns the content-addressed identity of this run: the
// hex SHA-256 of CanonicalString. Two configurations share a key
// exactly when Run would compute bitwise-identical Results (same
// knobs, same workload, same seed, same simulator generation), which
// is what lets the campaign cache replay a baseline cell simulated
// for one figure into every other figure that needs it. ok is false
// for configurations whose outcome is not hashable (see Cacheable).
func (c Config) CacheKey() (key string, ok bool) {
	if !c.Cacheable() {
		return "", false
	}
	sum := sha256.Sum256([]byte(c.CanonicalString()))
	return hex.EncodeToString(sum[:]), true
}
