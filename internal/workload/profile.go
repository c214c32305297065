// Package workload generates synthetic memory-access traces calibrated
// to the paper's Table 3 workload characterization. The paper traces
// SPEC2017, PARSEC and GAP applications with pintools; those traces are
// proprietary-tooling artifacts we cannot regenerate, so each workload
// is replaced by a stream with the same tracker-relevant aggregates:
//
//   - MPKI-LLC, which sets the instruction gap between memory requests
//     and hence memory intensity;
//   - unique rows touched per 64 ms window (footprint);
//   - the number of rows receiving 250+ activations (the hot set that
//     drives per-row tracking);
//   - average activations per row (reuse).
//
// These four aggregates are exactly the features that determine GCT
// saturation, RCC pressure and RCT traffic, so the tracker-facing
// behaviour of each workload is preserved even though the instruction
// streams are synthetic.
package workload

import "fmt"

// Suite labels a benchmark family.
type Suite string

// Suites in the paper's evaluation.
const (
	SPEC   Suite = "SPEC-2017"
	PARSEC Suite = "PARSEC"
	GAP    Suite = "GAP"
	MICRO  Suite = "MICRO" // GUPS
)

// Profile is one row of Table 3: per-64 ms, system-wide statistics for
// the 8-core rate-mode run.
type Profile struct {
	Name       string
	Suite      Suite
	MPKI       float64 // LLC misses per 1000 instructions
	UniqueRows int     // unique rows touched per window
	Hot250     int     // rows with more than 250 activations per window
	ActsPerRow float64 // average activations per touched row
}

// TotalActs returns the expected activations per window.
func (p Profile) TotalActs() int {
	return int(float64(p.UniqueRows) * p.ActsPerRow)
}

// Scaled returns the profile with its footprint divided by f (hot and
// cold row counts shrink; per-row intensity is preserved so rows still
// cross the tracker thresholds). Used to simulate a fraction of a
// window in bounded time.
func (p Profile) Scaled(f float64) Profile {
	if f <= 1 {
		return p
	}
	q := p
	q.UniqueRows = scaleCount(p.UniqueRows, f)
	q.Hot250 = scaleCount(p.Hot250, f)
	return q
}

func scaleCount(n int, f float64) int {
	s := int(float64(n)/f + 0.5)
	if n > 0 && s < 1 {
		s = 1
	}
	return s
}

// kilo scales Table 3's "K" counts.
func kilo(x float64) int { return int(x * 1000) }

// Profiles returns the paper's 36 workloads (Table 3), in paper order.
func Profiles() []Profile {
	return []Profile{
		{Name: "bwaves", Suite: SPEC, MPKI: 39.6, UniqueRows: kilo(77.9), Hot250: 0, ActsPerRow: 38.6},
		{Name: "parest", Suite: SPEC, MPKI: 27.6, UniqueRows: kilo(13.8), Hot250: 5882, ActsPerRow: 237},
		{Name: "fotonik3d", Suite: SPEC, MPKI: 25.9, UniqueRows: kilo(212), Hot250: 0, ActsPerRow: 17.5},
		{Name: "lbm", Suite: SPEC, MPKI: 25.6, UniqueRows: kilo(41.8), Hot250: 0, ActsPerRow: 82.1},
		{Name: "mcf", Suite: SPEC, MPKI: 20.8, UniqueRows: kilo(112), Hot250: 0, ActsPerRow: 28.8},
		{Name: "omnetpp", Suite: SPEC, MPKI: 9.75, UniqueRows: kilo(312), Hot250: 195, ActsPerRow: 10.7},
		{Name: "roms", Suite: SPEC, MPKI: 9.15, UniqueRows: kilo(115), Hot250: 1169, ActsPerRow: 22.9},
		{Name: "xz", Suite: SPEC, MPKI: 5.87, UniqueRows: kilo(102), Hot250: 1755, ActsPerRow: 26.4},
		{Name: "cam4", Suite: SPEC, MPKI: 3.23, UniqueRows: kilo(45.5), Hot250: 5, ActsPerRow: 54.1},
		{Name: "cactuBSSN", Suite: SPEC, MPKI: 3.20, UniqueRows: kilo(24.6), Hot250: 4609, ActsPerRow: 107},
		{Name: "xalancbmk", Suite: SPEC, MPKI: 1.61, UniqueRows: kilo(60.8), Hot250: 0, ActsPerRow: 49.8},
		{Name: "blender", Suite: SPEC, MPKI: 1.52, UniqueRows: kilo(52.4), Hot250: 2288, ActsPerRow: 58.7},
		{Name: "gcc", Suite: SPEC, MPKI: 0.65, UniqueRows: kilo(144), Hot250: 159, ActsPerRow: 18.0},
		{Name: "nab", Suite: SPEC, MPKI: 0.61, UniqueRows: kilo(61.9), Hot250: 0, ActsPerRow: 31.9},
		{Name: "deepsjeng", Suite: SPEC, MPKI: 0.29, UniqueRows: kilo(802), Hot250: 0, ActsPerRow: 1.78},
		{Name: "x264", Suite: SPEC, MPKI: 0.28, UniqueRows: kilo(25.0), Hot250: 0, ActsPerRow: 34.0},
		{Name: "wrf", Suite: SPEC, MPKI: 0.27, UniqueRows: kilo(19.3), Hot250: 18, ActsPerRow: 20.9},
		{Name: "namd", Suite: SPEC, MPKI: 0.26, UniqueRows: kilo(24.7), Hot250: 0, ActsPerRow: 34.9},
		{Name: "imagick", Suite: SPEC, MPKI: 0.16, UniqueRows: kilo(10.7), Hot250: 0, ActsPerRow: 19.1},
		{Name: "perlbench", Suite: SPEC, MPKI: 0.09, UniqueRows: kilo(25.6), Hot250: 0, ActsPerRow: 5.88},
		{Name: "leela", Suite: SPEC, MPKI: 0.03, UniqueRows: 720, Hot250: 0, ActsPerRow: 2.68},
		{Name: "povray", Suite: SPEC, MPKI: 0.03, UniqueRows: 500, Hot250: 0, ActsPerRow: 2.28},
		{Name: "face", Suite: PARSEC, MPKI: 13.2, UniqueRows: kilo(49.3), Hot250: 171, ActsPerRow: 42.5},
		{Name: "ferret", Suite: PARSEC, MPKI: 4.93, UniqueRows: kilo(48.6), Hot250: 1206, ActsPerRow: 47.6},
		{Name: "stream", Suite: PARSEC, MPKI: 4.51, UniqueRows: kilo(43.3), Hot250: 997, ActsPerRow: 36.8},
		{Name: "swapt", Suite: PARSEC, MPKI: 4.14, UniqueRows: kilo(43.2), Hot250: 1023, ActsPerRow: 38.4},
		{Name: "black", Suite: PARSEC, MPKI: 4.12, UniqueRows: kilo(48.8), Hot250: 937, ActsPerRow: 36.2},
		{Name: "freq", Suite: PARSEC, MPKI: 3.65, UniqueRows: kilo(56.5), Hot250: 1213, ActsPerRow: 34.9},
		{Name: "fluid", Suite: PARSEC, MPKI: 2.41, UniqueRows: kilo(90.8), Hot250: 858, ActsPerRow: 26.0},
		{Name: "bc_t", Suite: GAP, MPKI: 84.6, UniqueRows: kilo(231), Hot250: 9, ActsPerRow: 13.9},
		{Name: "bc_w", Suite: GAP, MPKI: 58.3, UniqueRows: kilo(129), Hot250: 0, ActsPerRow: 18.2},
		{Name: "cc_t", Suite: GAP, MPKI: 43.5, UniqueRows: kilo(192), Hot250: 0, ActsPerRow: 16.7},
		{Name: "pr_t", Suite: GAP, MPKI: 30.0, UniqueRows: kilo(113), Hot250: 0, ActsPerRow: 18.2},
		{Name: "pr_w", Suite: GAP, MPKI: 28.6, UniqueRows: kilo(98.7), Hot250: 0, ActsPerRow: 19.5},
		{Name: "cc_w", Suite: GAP, MPKI: 16.9, UniqueRows: kilo(93.2), Hot250: 0, ActsPerRow: 16.6},
		{Name: "GUPS", Suite: MICRO, MPKI: 3.85, UniqueRows: kilo(69.1), Hot250: 0, ActsPerRow: 31.4},
	}
}

// ByName returns the named profile.
func ByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown workload %q", name)
}
