// Package proptest is the repo's property-based testing engine: a
// stdlib-only, rapid-inspired (pgregory.net/rapid) harness for
// generated test cases with automatic shrinking and deterministic
// replay. The vendored rapid source retrieved for ROADMAP item 5 was
// not available in this environment, so the package implements the
// same core contract from scratch behind a rapid-shaped API — Check /
// Draw / Repeat — small enough to audit and swap out later.
//
// Model: every test case is driven by a stream of uint64 words. In
// generation mode the words come from a seeded PRNG and are recorded;
// when a case fails, the recorded trace is shrunk — blocks removed,
// words zeroed and halved — while the property keeps failing, and the
// minimal trace is reported as a Go literal that replays byte-for-byte
// via ReplayTrace. Draws past the end of a trace yield zero, which
// every generator maps to its simplest value, so deleting trace words
// shrinks generated structures instead of breaking them.
//
// Determinism: the per-test seed derives from the test name (override
// with PROPTEST_SEED to explore new schedules, e.g. in a soak run), so
// CI failures reproduce locally without any persisted corpus. The
// number of cases per Check scales with testutil's TEST_INTENSITY
// tier; PROPTEST_CHECKS pins it explicitly. docs/TESTING.md is the
// user-facing catalog of the properties built on this package.
package proptest

import (
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/testutil"
)

// Default case counts per tier; PROPTEST_CHECKS overrides both.
const (
	quickChecks    = 30
	thoroughChecks = 600
)

// checks returns the number of generated cases for one Check call.
func checks(tb testing.TB) int {
	if v := os.Getenv("PROPTEST_CHECKS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			tb.Fatalf("proptest: PROPTEST_CHECKS=%q: want a positive integer", v)
		}
		return n
	}
	return testutil.Pick(tb, quickChecks, thoroughChecks)
}

// baseSeed returns the deterministic seed for a test, from the test
// name unless PROPTEST_SEED pins it.
func baseSeed(tb testing.TB) uint64 {
	if v := os.Getenv("PROPTEST_SEED"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			tb.Fatalf("proptest: PROPTEST_SEED=%q: want a uint64", v)
		}
		return n
	}
	h := fnv.New64a()
	h.Write([]byte(tb.Name()))
	return h.Sum64()
}

// splitmix64 is the canonical SplitMix64 finalizer. It is only used in
// generation mode (case-seed derivation and the word PRNG); replayed
// traces are literal word streams, so committed ReplayTrace regressions
// do not depend on these constants.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// source feeds a test case its uint64 words: from a PRNG (recording
// them) in generation mode, from a fixed trace in replay/shrink mode.
type source struct {
	state    uint64 // PRNG state (generation mode)
	isReplay bool
	replay   []uint64 // replay mode: serve these words, then zeros
	pos      int
	rec      []uint64 // every word served, in order
}

func newRandomSource(seed uint64) *source { return &source{state: seed} }

func newReplaySource(trace []uint64) *source {
	return &source{isReplay: true, replay: trace}
}

func (s *source) next() uint64 {
	var v uint64
	if s.isReplay {
		if s.pos < len(s.replay) {
			v = s.replay[s.pos]
		} // else: exhausted — serve zero, the simplest value
		s.pos++
	} else {
		s.state += 0x9e3779b97f4a7c15
		v = splitmix64(s.state)
	}
	s.rec = append(s.rec, v)
	return v
}

// failure is the sentinel carried by the panic that unwinds a failing
// property; everything else escaping a property is a bug being caught
// and is treated as a failing case too.
type failure struct{ msg string }

// T is the per-case handle a property receives: draw values from
// generators, log, and fail. It intentionally mirrors rapid.T's
// surface. T is not safe for concurrent use by the property's own
// goroutines.
type T struct {
	src  *source
	log  []string // draw log of the current case, for failure reports
	logf []string // user Logf lines
	// quiet suppresses nothing today; draws are always recorded. The
	// field is kept private so the shrinker can evolve.
}

// Fatalf fails the current case immediately.
func (t *T) Fatalf(format string, args ...any) {
	panic(failure{msg: fmt.Sprintf(format, args...)})
}

// Errorf fails the current case immediately. Unlike testing.T.Errorf
// it does not continue the case: a generated sequence rarely makes
// sense past its first violation, and stopping keeps shrinking sound.
func (t *T) Errorf(format string, args ...any) {
	panic(failure{msg: fmt.Sprintf(format, args...)})
}

// Logf records a line shown only if the case ends up failing.
func (t *T) Logf(format string, args ...any) {
	t.logf = append(t.logf, fmt.Sprintf(format, args...))
}

// Skip abandons the current case without failing it (use sparingly: a
// generator producing mostly skipped cases wastes the case budget).
func (t *T) Skip() { panic(skipCase{}) }

type skipCase struct{}

func (t *T) draw() uint64 { return t.src.next() }

func (t *T) record(label string, v any) {
	t.log = append(t.log, fmt.Sprintf("%s=%v", label, v))
}

// Gen is a generator of V. Generators are pure functions of the word
// stream: the same words yield the same value, which is what makes
// traces replayable.
type Gen[V any] struct {
	name string
	gen  func(*T) V
}

// Draw produces one value, recording it under label for failure
// reports.
func (g Gen[V]) Draw(t *T, label string) V {
	v := g.gen(t)
	t.record(label, v)
	return v
}

// Uint64 generates a full-range uint64; zero words map to zero.
func Uint64() Gen[uint64] {
	return Gen[uint64]{name: "uint64", gen: (*T).draw}
}

// Uint64n generates a value in [0, n). n must be positive.
func Uint64n(n uint64) Gen[uint64] {
	if n == 0 {
		panic("proptest: Uint64n(0)")
	}
	return Gen[uint64]{name: fmt.Sprintf("uint64n(%d)", n), gen: func(t *T) uint64 {
		return t.draw() % n
	}}
}

// IntRange generates an int in [lo, hi], biased toward the bounds: a
// slice of the word space is reserved for exactly lo and exactly hi,
// so boundary conditions come up far more often than uniform sampling
// would produce them. A zero word yields lo (the simplest value).
func IntRange(lo, hi int) Gen[int] {
	if lo > hi {
		panic(fmt.Sprintf("proptest: IntRange(%d, %d)", lo, hi))
	}
	span := uint64(hi-lo) + 1
	return Gen[int]{name: fmt.Sprintf("int[%d,%d]", lo, hi), gen: func(t *T) int {
		w := t.draw()
		switch w >> 61 { // top 3 bits select the mode
		case 6:
			return lo
		case 7:
			return hi
		default:
			return lo + int(w%span)
		}
	}}
}

// Bool generates a bool; a zero word yields false.
func Bool() Gen[bool] {
	return Gen[bool]{name: "bool", gen: func(t *T) bool { return t.draw()&1 == 1 }}
}

// Float01 generates a float64 in [0, 1); a zero word yields 0.
func Float01() Gen[float64] {
	return Gen[float64]{name: "float01", gen: func(t *T) float64 {
		return float64(t.draw()>>11) / float64(1<<53)
	}}
}

// SampledFrom picks one of the given values; a zero word yields the
// first, so put the simplest value first.
func SampledFrom[V any](vs []V) Gen[V] {
	if len(vs) == 0 {
		panic("proptest: SampledFrom of empty slice")
	}
	return Gen[V]{name: fmt.Sprintf("sampled(%d)", len(vs)), gen: func(t *T) V {
		return vs[t.draw()%uint64(len(vs))]
	}}
}

// SliceOfN generates a slice of g with length in [lo, hi].
func SliceOfN[V any](g Gen[V], lo, hi int) Gen[[]V] {
	if lo < 0 || lo > hi {
		panic(fmt.Sprintf("proptest: SliceOfN(%d, %d)", lo, hi))
	}
	length := IntRange(lo, hi)
	return Gen[[]V]{name: fmt.Sprintf("slice(%s)", g.name), gen: func(t *T) []V {
		n := length.gen(t)
		out := make([]V, n)
		for i := range out {
			out[i] = g.gen(t)
		}
		return out
	}}
}

// Check runs prop against generated cases (count per the active
// TEST_INTENSITY tier, or PROPTEST_CHECKS), shrinks the first failure
// and reports it with the draw log, the replaying seed and the minimal
// trace literal.
func Check(tb testing.TB, prop func(*T)) {
	tb.Helper()
	n := checks(tb)
	seed := baseSeed(tb)
	for i := 0; i < n; i++ {
		caseSeed := splitmix64(seed + uint64(i))
		src := newRandomSource(caseSeed)
		fail, skipped, _, _ := runCase(src, prop)
		if skipped || fail == "" {
			continue
		}
		trace := append([]uint64(nil), src.rec...)
		trace, fail = shrink(trace, fail, prop)
		reportFailure(tb, prop, fail, seed, caseSeed, i, trace)
		return
	}
}

// ReplayTrace re-runs prop against an exact word trace — the form a
// shrunken counterexample is committed in as a regression test. It
// fails the surrounding test if the property fails on the trace (i.e.
// the bug has come back).
func ReplayTrace(tb testing.TB, trace []uint64, prop func(*T)) {
	tb.Helper()
	src := newReplaySource(trace)
	fail, skipped, log, logf := runCase(src, prop)
	if skipped {
		tb.Fatalf("proptest: replayed trace skipped — generator drifted; regenerate the trace")
	}
	if fail != "" {
		tb.Fatalf("proptest: regression reproduced:\n  %s\n%s", fail, formatLogs(log, logf))
	}
}

// runCase executes one case, translating the failure/skip panics.
func runCase(src *source, prop func(*T)) (fail string, skipped bool, log, logf []string) {
	t := &T{src: src}
	defer func() {
		log, logf = t.log, t.logf
		switch r := recover().(type) {
		case nil:
		case failure:
			fail = r.msg
		case skipCase:
			skipped = true
		default:
			// A property that panics is a failing property; keep the
			// panic value so the report shows it.
			fail = fmt.Sprintf("panic: %v", r)
		}
	}()
	prop(t)
	return
}

// shrink minimizes a failing trace: whole-block removals first (which
// deletes generated ops/elements), then word zeroing and halving
// (which simplifies surviving values). Every candidate is re-run; a
// candidate that stops failing is discarded. Budgeted so pathological
// properties cannot hang a test run.
func shrink(trace []uint64, fail string, prop func(*T)) ([]uint64, string) {
	budget := 2000
	try := func(cand []uint64) (string, bool) {
		if budget <= 0 {
			return "", false
		}
		budget--
		f, skipped, _, _ := runCase(newReplaySource(cand), prop)
		if skipped || f == "" {
			return "", false
		}
		return f, true
	}
	improved := true
	for improved && budget > 0 {
		improved = false
		// Pass 1: drop blocks, largest first.
		for block := len(trace) / 2; block >= 1; block /= 2 {
			for at := 0; at+block <= len(trace); {
				cand := make([]uint64, 0, len(trace)-block)
				cand = append(cand, trace[:at]...)
				cand = append(cand, trace[at+block:]...)
				if f, ok := try(cand); ok {
					trace, fail = cand, f
					improved = true
					// retry the same position: more may be removable
				} else {
					at++
				}
			}
		}
		// Pass 2: zero words.
		for i := range trace {
			if trace[i] == 0 {
				continue
			}
			cand := append([]uint64(nil), trace...)
			cand[i] = 0
			if f, ok := try(cand); ok {
				trace, fail = cand, f
				improved = true
			}
		}
		// Pass 3: minimize each word by binary delta descent — reaches
		// the smallest still-failing value, not just power-of-two stops.
		for i := range trace {
			for delta := trace[i] - trace[i]/2; delta > 0; {
				if trace[i] < delta {
					delta = trace[i]
				}
				if delta == 0 {
					break
				}
				cand := append([]uint64(nil), trace...)
				cand[i] -= delta
				if f, ok := try(cand); ok {
					trace, fail = cand, f
					improved = true
				} else {
					delta /= 2
				}
			}
		}
		// Drop any zero tail: replay serves zeros past the end anyway.
		for len(trace) > 0 && trace[len(trace)-1] == 0 {
			trace = trace[:len(trace)-1]
		}
	}
	return trace, fail
}

func reportFailure(tb testing.TB, prop func(*T), fail string, seed, caseSeed uint64, caseIdx int, trace []uint64) {
	tb.Helper()
	// Re-run the minimal case once to collect its draw log.
	finalFail, _, log, logf := runCase(newReplaySource(trace), prop)
	if finalFail != "" {
		fail = finalFail
	}
	var b strings.Builder
	fmt.Fprintf(&b, "proptest: property failed (case %d of seed %d):\n  %s\n", caseIdx, seed, fail)
	b.WriteString(formatLogs(log, logf))
	fmt.Fprintf(&b, "replay exactly:\n  proptest.ReplayTrace(t, %s, prop)\n", traceLiteral(trace))
	fmt.Fprintf(&b, "or re-explore:\n  PROPTEST_SEED=%d go test -run '%s'\n", seed, tb.Name())
	_ = caseSeed
	tb.Fatal(b.String())
}

func formatLogs(log, logf []string) string {
	var b strings.Builder
	if len(log) > 0 {
		b.WriteString("draws:\n")
		for _, l := range log {
			fmt.Fprintf(&b, "  %s\n", l)
		}
	}
	if len(logf) > 0 {
		b.WriteString("log:\n")
		for _, l := range logf {
			fmt.Fprintf(&b, "  %s\n", l)
		}
	}
	return b.String()
}

func traceLiteral(trace []uint64) string {
	parts := make([]string, len(trace))
	for i, w := range trace {
		parts[i] = fmt.Sprintf("%#x", w)
	}
	return "[]uint64{" + strings.Join(parts, ", ") + "}"
}
