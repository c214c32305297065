package obsv_test

import (
	"fmt"
	"os"

	"repro/internal/obsv"
)

// A Registry gathers metrics pulled from simulator components at
// snapshot time: components keep plain counters on their hot paths and
// implement Source, so measurement costs nothing until CollectInto runs.
func ExampleRegistry() {
	r := obsv.NewRegistry()
	r.Count("memsim.activates", 12000)
	r.Count("memsim.activates", 500) // accumulates
	r.Gauge("sim.ipc", 1.87)

	m := r.Snapshot()
	for _, name := range m.Names() { // sorted, stable
		fmt.Printf("%s = %s\n", name, m[name])
	}
	// Output:
	// memsim.activates = 12500
	// sim.ipc = 1.87
}

// A Hist is a fixed-bucket histogram for queue depths and occupancy
// distributions; PowersOfTwo builds the usual bound ladder.
func ExampleHist() {
	h := obsv.NewHist(obsv.PowersOfTwo(8)...) // bounds 0,1,2,4,8
	for _, depth := range []int64{0, 1, 1, 3, 9} {
		h.Observe(depth)
	}
	fmt.Println(h) // non-empty buckets as [lo..hi]:count
	fmt.Printf("mean=%.1f max=%d\n", h.Mean(), h.Max)
	// Output:
	// n=5 mean=2.8 max=9 [0..0]:1 [1..1]:2 [3..4]:1 [9..]:1
	// mean=2.8 max=9
}

// A Tracer is a bounded ring of timestamped simulation events. A nil
// *Tracer is valid and free: every instrumentation site guards with a
// single nil check inside Emit, so tracing costs nothing when off.
func ExampleTracer() {
	tr := obsv.NewTracer(1024)
	tr.Emit(obsv.Event{Cycle: 100, Kind: obsv.EvActivate, Row: 4242})
	tr.Emit(obsv.Event{Cycle: 250, Kind: obsv.EvMitigate, Row: 4242, Aux: 4})

	var off *obsv.Tracer // disabled: Emit is a no-op
	off.Emit(obsv.Event{Cycle: 1, Kind: obsv.EvActivate})

	for _, e := range tr.Events() {
		fmt.Printf("cycle=%d %s row=%d\n", e.Cycle, e.Kind, e.Row)
	}
	fmt.Println("disabled tracer recorded:", off.Total())
	// Output:
	// cycle=100 activate row=4242
	// cycle=250 mitigate row=4242
	// disabled tracer recorded: 0
}

// A Report is the machine-readable result of one run; ReportFile wraps
// one or more reports for the -json flag of the cmd binaries.
func ExampleReport() {
	rep := obsv.NewReport("hydrasim", "parest/hydra")
	rep.Params = map[string]any{"scale": 16, "trh": 500}
	rep.Workloads = []obsv.WorkloadReport{{
		Name:     "parest",
		NormPerf: map[string]float64{"hydra": 0.993},
	}}
	if err := rep.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	fmt.Printf("%s %s -> %s: norm_perf=%.3f\n",
		rep.Schema, rep.Tool, rep.Target, rep.Workloads[0].NormPerf["hydra"])
	// Output:
	// hydra-run-report/v1 hydrasim -> parest/hydra: norm_perf=0.993
}
