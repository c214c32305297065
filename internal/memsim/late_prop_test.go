package memsim

// Late-submit scheduler equivalence. The scheduler machine submits
// every request at its arrival time. Real submitters do not behave
// that way: the activation hook submits metadata transfers and victim
// refreshes dated at the activation time (already past by the time the
// barrier replays the hook), and the throttle policy dates demand reads
// into the future, out of order with each other. This machine generates such schedules — every request
// carries a submit time and a separate arrival time — and requires the
// indexed scheduler on the epoch engine and the linear reference to
// produce bitwise-identical event logs and statistics. It is a separate machine
// so the scheduler machine's draw sequence, and with it the committed
// leapfrog trace, stays as it is.

import (
	"reflect"
	"testing"

	"repro/internal/dram"
	"repro/internal/proptest"
)

// lateSegmentFunc appends one generated segment to specs in submit
// order and returns the updated specs and submit clock.
type lateSegmentFunc func(t *proptest.T, mem dram.Config, specs []lateSpec, clock int64) ([]lateSpec, int64)

func lateSegments() map[string]lateSegmentFunc {
	return map[string]lateSegmentFunc{
		// An activation's follow-up traffic, submitted now but dated
		// at the activation time: metadata reads and writes plus
		// victim refreshes. Large back-dates arrive already starving.
		"activation-burst": func(t *proptest.T, mem dram.Config, specs []lateSpec, clock int64) ([]lateSpec, int64) {
			arrive := clock - int64(proptest.IntRange(0, 6000).Draw(t, "back"))
			if arrive < 0 {
				arrive = 0
			}
			n := proptest.IntRange(1, 8).Draw(t, "n")
			kinds := []Kind{MetaRead, MetaWrite, MitigAct}
			for i := 0; i < n; i++ {
				k := proptest.SampledFrom(kinds).Draw(t, "kind")
				row := proptest.SampledFrom(schedRows).Draw(t, "row")
				specs = append(specs, lateSpec{specAt(t, mem, k, row, arrive), clock})
			}
			return specs, clock + int64(proptest.IntRange(0, 40).Draw(t, "gap"))
		},
		// Throttled demand: reads submitted now, each released at its
		// own future slot, so arrivals run backward between requests.
		"throttled": func(t *proptest.T, mem dram.Config, specs []lateSpec, clock int64) ([]lateSpec, int64) {
			n := proptest.IntRange(1, 10).Draw(t, "n")
			for i := 0; i < n; i++ {
				row := proptest.SampledFrom(schedRows).Draw(t, "row")
				arrive := clock + int64(proptest.IntRange(0, 3000).Draw(t, "ahead"))
				specs = append(specs, lateSpec{specAt(t, mem, ReadReq, row, arrive), clock})
				clock += int64(proptest.IntRange(0, 6).Draw(t, "gap"))
			}
			return specs, clock
		},
		// Ordinary demand, submitted at its arrival, so the late
		// traffic competes with a live queue.
		"demand": func(t *proptest.T, mem dram.Config, specs []lateSpec, clock int64) ([]lateSpec, int64) {
			n := proptest.IntRange(2, 40).Draw(t, "n")
			kinds := []Kind{ReadReq, ReadReq, ReadReq, WriteReq}
			for i := 0; i < n; i++ {
				k := proptest.SampledFrom(kinds).Draw(t, "kind")
				row := proptest.SampledFrom(schedRows).Draw(t, "row")
				specs = append(specs, lateSpec{specAt(t, mem, k, row, clock), clock})
				clock += int64(proptest.IntRange(0, 6).Draw(t, "gap"))
			}
			return specs, clock
		},
		// Idle gap of up to three refresh intervals: a channel that
		// sat idle applies several missed refreshes in one catch-up.
		"idle": func(t *proptest.T, mem dram.Config, specs []lateSpec, clock int64) ([]lateSpec, int64) {
			return specs, clock + int64(proptest.IntRange(100, 3*int(DDR4().TREFI)).Draw(t, "gap"))
		},
	}
}

// lateInserts counts the submissions that landed behind the tail of a
// future list or of an aging list on the indexed scheduler.
type lateInserts struct{ future, aging int }

// record classifies one accepted submission. Submit leaves r on its
// queue's future list when it arrives after the channel clock, else on
// the aging list of an FR-FCFS queue; a successor on that list means r
// was inserted behind the list's tail.
func (p *lateInserts) record(m *Memory, r *Request) {
	c := m.channels[r.channel]
	switch {
	case r.Arrive > c.now:
		if r.anext != nil {
			p.future++
		}
	case c.queueFor(r.Kind).starve:
		if r.anext != nil {
			p.aging++
		}
	}
}

func lateSubmitProp(probe *lateInserts) func(*proptest.T) {
	mem := dram.Baseline()
	segments := lateSegments()
	segNames := make([]string, 0, len(segments))
	for name := range segments {
		segNames = append(segNames, name)
	}
	sortStrings(segNames)
	return func(t *proptest.T) {
		nseg := proptest.IntRange(1, 12).Draw(t, "segments")
		var specs []lateSpec
		clock := int64(0)
		for s := 0; s < nseg; s++ {
			name := proptest.SampledFrom(segNames).Draw(t, "segment")
			specs, clock = segments[name](t, mem, specs, clock)
		}
		if len(specs) == 0 {
			return
		}

		cfgA := genSchedConfig(t, mem)
		idx := New(cfgA)
		var after func(*Request, bool)
		if probe != nil {
			after = func(r *Request, accepted bool) {
				if accepted {
					probe.record(idx, r)
				}
				if err := queueListErr(idx); err != nil {
					t.Fatalf("after submit: %v", err)
				}
			}
		}
		got := driveLate(idx, func(h func(uint32, Kind, int64)) { idx.cfg.OnACT = h }, specs, after, listCheck(t, idx))

		lin := newLinMemory(cfgA)
		want := driveLate(lin, func(h func(uint32, Kind, int64)) { lin.cfg.OnACT = h }, specs, nil, nil)

		compareLogs(t, "indexed", got, "reference", want)
		if a, b := idx.Stats(), lin.Stats(); !reflect.DeepEqual(a, b) {
			t.Fatalf("stats diverged:\nindexed:   %+v\nreference: %+v", a, b)
		}
	}
}

// TestLateSubmitEquivalenceMachine is the generated equivalence suite
// for out-of-order arrivals (docs/TESTING.md).
func TestLateSubmitEquivalenceMachine(t *testing.T) {
	proptest.Check(t, lateSubmitProp(nil))
}

// TestLateSubmitMachineReachesLateInserts pins that the late-submit
// machine exercises what it exists for: across its generated cases,
// submissions land behind the tail of a future list (arrivals running
// backward) and of an aging list (arrivals already in the past), so the
// walk back from the tail is tested. A generator that drifted back to
// in-order arrivals would pass every equivalence check while testing
// neither. After every submission it also walks every list
// (queueListErr).
func TestLateSubmitMachineReachesLateInserts(t *testing.T) {
	var probe lateInserts
	proptest.Check(t, lateSubmitProp(&probe))
	t.Logf("submissions behind a list tail: future %d, aging %d", probe.future, probe.aging)
	if probe.future == 0 || probe.aging == 0 {
		t.Fatalf("late inserts: future %d, aging %d; want both > 0", probe.future, probe.aging)
	}
}
