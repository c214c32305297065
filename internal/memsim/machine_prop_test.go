package memsim

// Property-based scheduler equivalence: this machine generates
// adversarial schedules — write bursts that trip the drain hysteresis,
// hot-row runs against a starving victim, clock gaps landing on refresh
// boundaries, same-cycle arrival pileups, meta storms past the pressure
// threshold — together with generated queue-cap configurations, and
// requires the indexed scheduler on the epoch engine and the
// linear-scan reference to produce bitwise-identical event logs and
// statistics. A divergence shrinks to a minimal schedule.

import (
	"reflect"
	"testing"

	"repro/internal/dram"
	"repro/internal/proptest"
)

// schedSegment appends one generated schedule segment to specs,
// advancing the arrival clock, and returns the updated slice and clock.
type segmentFunc func(t *proptest.T, mem dram.Config, specs []reqSpec, clock int64) ([]reqSpec, int64)

// specAt builds one request spec for a drawn location.
func specAt(t *proptest.T, mem dram.Config, kind Kind, row int, clock int64) reqSpec {
	loc := dram.Loc{
		Channel: proptest.IntRange(0, mem.Channels-1).Draw(t, "ch"),
		Rank:    proptest.IntRange(0, mem.RanksPerChannel-1).Draw(t, "rank"),
		Bank:    proptest.IntRange(0, mem.BanksPerRank-1).Draw(t, "bank"),
		Row:     row,
		Col:     proptest.IntRange(0, mem.RowBytes/64-1).Draw(t, "col"),
	}
	return reqSpec{line: mem.Encode(loc), kind: kind, arrive: clock}
}

// schedRows is the small row set every segment draws from, so row hits,
// conflicts and starvation all occur within a short schedule.
var schedRows = []int{0, 37, 74, 111, 148, 185}

func schedSegments() map[string]segmentFunc {
	return map[string]segmentFunc{
		// A dense run of writes to a few rows: trips DrainHi, then the
		// hysteresis exit path on the way back down.
		"write-burst": func(t *proptest.T, mem dram.Config, specs []reqSpec, clock int64) ([]reqSpec, int64) {
			n := proptest.IntRange(4, 40).Draw(t, "n")
			row := proptest.SampledFrom(schedRows).Draw(t, "row")
			for i := 0; i < n; i++ {
				specs = append(specs, specAt(t, mem, WriteReq, row, clock))
				clock += int64(proptest.IntRange(0, 3).Draw(t, "gap"))
			}
			return specs, clock
		},
		// One early read to a cold row, then a flood of row-hits
		// elsewhere: the victim must be rescued by the starvation rule
		// (oldest seq among starving), not left behind the hit chain.
		"starve": func(t *proptest.T, mem dram.Config, specs []reqSpec, clock int64) ([]reqSpec, int64) {
			specs = append(specs, specAt(t, mem, ReadReq, 185, clock))
			n := proptest.IntRange(8, 60).Draw(t, "n")
			row := proptest.SampledFrom(schedRows[:2]).Draw(t, "row")
			for i := 0; i < n; i++ {
				specs = append(specs, specAt(t, mem, ReadReq, row, clock))
				clock += int64(proptest.IntRange(0, 2).Draw(t, "gap"))
			}
			return specs, clock
		},
		// Jump the clock to just around the next tREFI boundary so
		// requests arrive while a refresh is due or in flight.
		"refresh-collide": func(t *proptest.T, mem dram.Config, specs []reqSpec, clock int64) ([]reqSpec, int64) {
			tm := DDR4()
			next := (clock/tm.TREFI + 1) * tm.TREFI
			clock = next + int64(proptest.IntRange(-40, 40).Draw(t, "skew"))
			if clock < 0 {
				clock = 0
			}
			n := proptest.IntRange(2, 12).Draw(t, "n")
			for i := 0; i < n; i++ {
				row := proptest.SampledFrom(schedRows).Draw(t, "row")
				specs = append(specs, specAt(t, mem, ReadReq, row, clock))
			}
			return specs, clock
		},
		// A pileup of mixed requests all arriving on the same cycle:
		// tie-breaks must be decided by seq alone.
		"same-cycle": func(t *proptest.T, mem dram.Config, specs []reqSpec, clock int64) ([]reqSpec, int64) {
			n := proptest.IntRange(3, 24).Draw(t, "n")
			kinds := []Kind{ReadReq, WriteReq, MetaRead, MetaWrite, MitigAct}
			for i := 0; i < n; i++ {
				k := proptest.SampledFrom(kinds).Draw(t, "kind")
				row := proptest.SampledFrom(schedRows).Draw(t, "row")
				specs = append(specs, specAt(t, mem, k, row, clock))
			}
			return specs, clock
		},
		// Enough internal meta reads to cross the metaPressure
		// promotion threshold.
		"meta-storm": func(t *proptest.T, mem dram.Config, specs []reqSpec, clock int64) ([]reqSpec, int64) {
			n := proptest.IntRange(metaPressure+1, metaPressure+40).Draw(t, "n")
			row := proptest.SampledFrom(schedRows).Draw(t, "row")
			for i := 0; i < n; i++ {
				specs = append(specs, specAt(t, mem, MetaRead, row, clock))
				clock += int64(proptest.IntRange(0, 1).Draw(t, "gap"))
			}
			return specs, clock
		},
		// Background mixed traffic with small gaps, plus occasional
		// mitigation activates.
		"mixed": func(t *proptest.T, mem dram.Config, specs []reqSpec, clock int64) ([]reqSpec, int64) {
			n := proptest.IntRange(5, 50).Draw(t, "n")
			kinds := []Kind{ReadReq, ReadReq, ReadReq, WriteReq, MetaRead, MetaWrite, MitigAct}
			for i := 0; i < n; i++ {
				k := proptest.SampledFrom(kinds).Draw(t, "kind")
				row := proptest.SampledFrom(schedRows).Draw(t, "row")
				specs = append(specs, specAt(t, mem, k, row, clock))
				clock += int64(proptest.IntRange(0, 6).Draw(t, "gap"))
			}
			return specs, clock
		},
		// Idle gap: lets queues fully drain so the next segment starts
		// from an empty controller.
		"idle": func(t *proptest.T, mem dram.Config, specs []reqSpec, clock int64) ([]reqSpec, int64) {
			clock += int64(proptest.IntRange(100, 5000).Draw(t, "gap"))
			return specs, clock
		},
	}
}

// genSchedConfig draws a controller configuration: either the default
// or a tightened one where refusals, drains and starvation are common.
func genSchedConfig(t *proptest.T, mem dram.Config) Config {
	cfg := DefaultConfig(mem)
	if proptest.Bool().Draw(t, "tight") {
		cfg.ReadQCap = proptest.IntRange(2, 16).Draw(t, "readQCap")
		cfg.WriteQCap = proptest.IntRange(3, 24).Draw(t, "writeQCap")
		cfg.DrainHi = proptest.IntRange(2, cfg.WriteQCap).Draw(t, "drainHi")
		cfg.DrainLo = proptest.IntRange(0, cfg.DrainHi-1).Draw(t, "drainLo")
	}
	return cfg
}

// schedulerEquivProp drives a generated schedule through the epoch
// engine and the linear reference under a generated configuration and
// requires bitwise-identical event logs and Stats. With varyChannels
// the memory has a drawn 1, 2 or 4 channels, which exercises the epoch
// engine's decision order across channel counts; otherwise it has the
// baseline's two, and the draws are the ones the committed leapfrog
// trace replays.
func schedulerEquivProp(varyChannels bool) func(*proptest.T) {
	segments := schedSegments()
	segNames := make([]string, 0, len(segments))
	for name := range segments {
		segNames = append(segNames, name)
	}
	// Deterministic order for SampledFrom (map iteration is not).
	sortStrings(segNames)
	return func(t *proptest.T) {
		mem := dram.Baseline()
		if varyChannels {
			mem.Channels = []int{1, 2, 4}[proptest.IntRange(0, 2).Draw(t, "channels")]
		}
		nseg := proptest.IntRange(1, 10).Draw(t, "segments")
		var specs []reqSpec
		clock := int64(0)
		for s := 0; s < nseg; s++ {
			name := proptest.SampledFrom(segNames).Draw(t, "segment")
			specs, clock = segments[name](t, mem, specs, clock)
		}
		if len(specs) == 0 {
			return
		}

		cfg := genSchedConfig(t, mem)
		idx := New(cfg)
		got := driveStream(idx, func(h func(uint32, Kind, int64)) { idx.cfg.OnACT = h }, specs)
		lin := newLinMemory(cfg)
		want := driveStream(lin, func(h func(uint32, Kind, int64)) { lin.cfg.OnACT = h }, specs)

		compareLogs(t, "epoch engine", got, "reference", want)
		if a, b := idx.Stats(), lin.Stats(); !reflect.DeepEqual(a, b) {
			t.Fatalf("stats diverged:\nepoch engine: %+v\nreference:    %+v", a, b)
		}
	}
}

func compareLogs(t *proptest.T, gotName string, got []schedEvent, wantName string, want []schedEvent) {
	if len(got) != len(want) {
		t.Fatalf("%s produced %d events, %s %d", gotName, len(got), wantName, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d of %d diverged:\n%s: %+v\n%s: %+v",
				i, len(got), gotName, got[i], wantName, want[i])
		}
	}
}

// TestEpochEquivalenceMachine is the scheduler machine over drawn
// channel counts (docs/TESTING.md): stepping one, two or four channels
// in decision order into one event buffer must reproduce the
// reference's global event order.
func TestEpochEquivalenceMachine(t *testing.T) {
	proptest.Check(t, schedulerEquivProp(true))
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestSchedulerEquivalenceMachine requires the epoch engine on the
// baseline's two channels to match the linear reference on generated
// schedules (docs/TESTING.md).
func TestSchedulerEquivalenceMachine(t *testing.T) {
	proptest.Check(t, schedulerEquivProp(false))
}

// TestRegressionOutOfOrderArrivalLeapfrog replays the machine's
// shrunken catch: three same-bank read clusters whose arrival
// timestamps go *backward* (the third cluster lands 39 cycles before
// the second). The indexed scheduler promoted requests out of its
// future heap in (Arrive, seq) order, so the late-submitted cluster
// reached the bank bucket first and leapfrogged the earlier-submitted
// one, while the linear reference broke the tie by submission order —
// completions diverged. Fixed in bucket.push: an out-of-order
// promotion now walks back into seq position, so FR-FCFS/FCFS
// tie-breaks see submission order no matter when a request left the
// future list.
// (An earlier fix clamped arrivals to be per-channel monotonic at
// submit, but that redefined arrival semantics: the throttle policy
// legitimately submits future-dated requests, and the clamp dragged
// every later submission on the channel up to the throttled row's
// release time — channel-wide stalling instead of per-row rate
// limiting.) The trace must replay clean.
func TestRegressionOutOfOrderArrivalLeapfrog(t *testing.T) {
	proptest.ReplayTrace(t, []uint64{
		0x193b4e4579833cc7, 0x5ffdfcaec752799e, 0x0, 0xf0db6269e38c10ce,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0,
		0x36d2a6c9e2226551, 0x421d7c34f37fe9c5, 0xa0e583a90329a243,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0,
		0x8fa04da357c56fe,
	}, schedulerEquivProp(false))
}
