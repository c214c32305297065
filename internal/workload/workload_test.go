package workload

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/testutil"
)

func testStreamConfig() StreamConfig {
	mem := dram.Baseline()
	cfg := DefaultStreamConfig(mem, mem.RowsPerBank-17)
	cfg.Scale = 16 // keep tests fast; per-row intensity is preserved
	return cfg
}

func TestProfilesMatchTable3Shape(t *testing.T) {
	ps := Profiles()
	if len(ps) != 36 {
		t.Fatalf("profiles = %d, want 36", len(ps))
	}
	counts := map[Suite]int{}
	names := map[string]bool{}
	for _, p := range ps {
		if names[p.Name] {
			t.Fatalf("duplicate workload %q", p.Name)
		}
		names[p.Name] = true
		counts[p.Suite]++
		if p.MPKI <= 0 || p.UniqueRows <= 0 || p.ActsPerRow <= 0 {
			t.Errorf("%s: non-positive stats %+v", p.Name, p)
		}
	}
	if counts[SPEC] != 22 || counts[PARSEC] != 7 || counts[GAP] != 6 || counts[MICRO] != 1 {
		t.Fatalf("suite counts = %v, want SPEC 22 / PARSEC 7 / GAP 6 / MICRO 1", counts)
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("parest")
	if err != nil || p.Hot250 != 5882 {
		t.Fatalf("ByName(parest) = %+v, %v", p, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestScaledPreservesIntensity(t *testing.T) {
	p, _ := ByName("parest")
	s := p.Scaled(8)
	if s.UniqueRows != p.UniqueRows/8 && s.UniqueRows != p.UniqueRows/8+1 {
		t.Fatalf("scaled unique = %d", s.UniqueRows)
	}
	if s.ActsPerRow != p.ActsPerRow {
		t.Fatal("scaling changed per-row intensity")
	}
	if got := p.Scaled(0.5); got != p {
		t.Fatal("scale <= 1 must be identity")
	}
}

func TestCharacterizationMatchesProfile(t *testing.T) {
	// The generator must reproduce Table 3's aggregates (on the scaled
	// footprint): unique rows, hot-row count, activations per row and
	// MPKI, each within modest tolerance.
	for _, name := range []string{"parest", "bwaves", "deepsjeng", "GUPS", "xz"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testStreamConfig()
		c, err := Characterize(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sp := p.Scaled(cfg.Scale)
		wantUnique := sp.UniqueRows / cfg.Cores * cfg.Cores
		if !within(float64(c.UniqueRows), float64(wantUnique), 0.05) {
			t.Errorf("%s: unique rows = %d, want ~%d", name, c.UniqueRows, wantUnique)
		}
		if sp.Hot250 > 0 {
			wantHot := sp.Hot250 / cfg.Cores * cfg.Cores
			if !within(float64(c.Hot250), float64(wantHot), 0.25) {
				t.Errorf("%s: hot rows = %d, want ~%d", name, c.Hot250, wantHot)
			}
		} else if name != "GUPS" && c.Hot250 > sp.UniqueRows/100 {
			t.Errorf("%s: %d unexpected hot rows", name, c.Hot250)
		}
		if !within(c.ActsPerRow, p.ActsPerRow, 0.30) {
			t.Errorf("%s: acts/row = %.1f, want ~%.1f", name, c.ActsPerRow, p.ActsPerRow)
		}
		if !within(c.MPKI, p.MPKI, 0.35) {
			t.Errorf("%s: MPKI = %.2f, want ~%.2f", name, c.MPKI, p.MPKI)
		}
	}
}

func within(got, want, tol float64) bool {
	if want == 0 {
		return got == 0
	}
	d := got/want - 1
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestStreamDeterminism(t *testing.T) {
	p, _ := ByName("xz")
	cfg := testStreamConfig()
	a := testutil.Must(NewStream(p, cfg))
	b := testutil.Must(NewStream(p, cfg))
	for i := 0; i < 10000; i++ {
		ra, oka := a.Next()
		rb, okb := b.Next()
		if ra != rb || oka != okb {
			t.Fatalf("streams diverged at %d: %+v vs %+v", i, ra, rb)
		}
		if !oka {
			break
		}
	}
}

// TestNewStreamsMatchesNewStream pins the shared placement permutation:
// each core's stream from NewStreams yields, to exhaustion, the records
// NewStream yields for that CoreID.
func TestNewStreamsMatchesNewStream(t *testing.T) {
	for _, name := range []string{"xz", "parest", "bc_t", "GUPS"} {
		p, _ := ByName(name)
		for _, seed := range []uint64{1, 0x9e3779b97f4a7c15} {
			cfg := testStreamConfig()
			cfg.Scale = 64
			cfg.Seed = seed
			streams, err := NewStreams(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(streams) != cfg.Cores {
				t.Fatalf("%s: %d streams for %d cores", name, len(streams), cfg.Cores)
			}
			for core, got := range streams {
				c := cfg
				c.CoreID = core
				want := testutil.Must(NewStream(p, c))
				for i := 0; ; i++ {
					rg, okg := got.Next()
					rw, okw := want.Next()
					if rg != rw || okg != okw {
						t.Fatalf("%s seed %#x core %d: record %d is %+v, %v; NewStream gives %+v, %v",
							name, seed, core, i, rg, okg, rw, okw)
					}
					if !okw {
						break
					}
				}
			}
		}
	}
}

func TestStreamsPartitionedPerCore(t *testing.T) {
	p, _ := ByName("bwaves")
	cfg := testStreamConfig()
	mem := cfg.Mem
	rowsOf := func(core int) map[int]bool {
		c := cfg
		c.CoreID = core
		s := testutil.Must(NewStream(p, c))
		rows := map[int]bool{}
		for i := 0; i < 5000; i++ {
			r, ok := s.Next()
			if !ok {
				break
			}
			rows[mem.Decode(r.Line).Row] = true
		}
		return rows
	}
	r0, r1 := rowsOf(0), rowsOf(1)
	for row := range r0 {
		if r1[row] {
			t.Fatalf("cores 0 and 1 share in-bank row %d", row)
		}
	}
}

func TestStreamRespectsDemandBound(t *testing.T) {
	p, _ := ByName("deepsjeng")
	cfg := testStreamConfig()
	s := testutil.Must(NewStream(p, cfg))
	for i := 0; i < 20000; i++ {
		r, ok := s.Next()
		if !ok {
			break
		}
		if loc := cfg.Mem.Decode(r.Line); loc.Row > cfg.MaxDemandRow {
			t.Fatalf("request to reserved row %d", loc.Row)
		}
	}
}

func TestGUPSSingleLineBursts(t *testing.T) {
	p, _ := ByName("GUPS")
	cfg := testStreamConfig()
	cfg.WriteFrac = 0
	s := testutil.Must(NewStream(p, cfg))
	prev := uint64(1 << 62)
	sameRow := 0
	n := 5000
	for i := 0; i < n; i++ {
		r, ok := s.Next()
		if !ok {
			break
		}
		lr := cfg.Mem.GlobalRow(cfg.Mem.Decode(r.Line))
		pr := cfg.Mem.GlobalRow(cfg.Mem.Decode(prev))
		if i > 0 && lr == pr {
			sameRow++
		}
		prev = r.Line
	}
	// Random single-line accesses over ~500 rows/core: consecutive
	// same-row pairs should be rare.
	if sameRow > n/50 {
		t.Fatalf("GUPS shows %d/%d consecutive same-row accesses", sameRow, n)
	}
}

func TestWriteFraction(t *testing.T) {
	p, _ := ByName("lbm")
	cfg := testStreamConfig()
	cfg.WriteFrac = 0.25
	s := testutil.Must(NewStream(p, cfg))
	var reads, writes int
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		if r.Write {
			writes++
		} else {
			reads++
		}
	}
	frac := float64(writes) / float64(reads+writes)
	if frac < 0.08 || frac > 0.20 { // 0.25 per activation over burst-2 reads
		t.Fatalf("write fraction = %.3f, want ~0.11", frac)
	}
}

func TestNewStreamValidation(t *testing.T) {
	p, _ := ByName("lbm")
	cfg := testStreamConfig()
	cfg.CoreID = cfg.Cores
	if _, err := NewStream(p, cfg); err == nil {
		t.Error("bad core accepted")
	}
	cfg = testStreamConfig()
	cfg.MaxDemandRow = 0
	if _, err := NewStream(p, cfg); err == nil {
		t.Error("bad MaxDemandRow accepted")
	}
	if _, err := NewStreams(p, cfg); err == nil {
		t.Error("NewStreams accepted a bad MaxDemandRow")
	}
	cfg = testStreamConfig()
	cfg.Cores = 0
	if _, err := NewStreams(p, cfg); err == nil {
		t.Error("NewStreams accepted zero cores")
	}
}

func TestActBudgetOverride(t *testing.T) {
	p, _ := ByName("lbm")
	cfg := testStreamConfig()
	cfg.ActBudget = 100
	cfg.WriteFrac = 0
	cfg.Burst = 1
	s := testutil.Must(NewStream(p, cfg))
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		n++
	}
	if n != 100 {
		t.Fatalf("requests = %d, want 100 (budget with burst 1)", n)
	}
}

// TestBudgetConservation checks a stream emits exactly its activation
// budget worth of bursts: reads = budget * burst (writebacks extra).
func TestBudgetConservation(t *testing.T) {
	p, _ := ByName("mcf")
	cfg := testStreamConfig()
	cfg.ActBudget = 500
	cfg.WriteFrac = 0
	s := testutil.Must(NewStream(p, cfg))
	reads := 0
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		if r.Write {
			t.Fatal("write with WriteFrac=0")
		}
		reads++
	}
	if reads != 500*cfg.Burst {
		t.Fatalf("reads = %d, want %d", reads, 500*cfg.Burst)
	}
}

// TestHotRowsExceed250 verifies every hot row the generator emits
// really crosses the 250-activation bar that defines Table 3's column.
func TestHotRowsExceed250(t *testing.T) {
	p, _ := ByName("cactuBSSN") // 4609 hot rows
	cfg := testStreamConfig()
	c, err := Characterize(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := p.Scaled(cfg.Scale)
	want := sp.Hot250 / cfg.Cores * cfg.Cores
	if c.Hot250 < want*3/4 {
		t.Fatalf("hot rows = %d, want >= %d", c.Hot250, want*3/4)
	}
}

// TestColdRowsStayUnder250 verifies no-hot-set workloads generate no
// accidental hot rows.
func TestColdRowsStayUnder250(t *testing.T) {
	for _, name := range []string{"lbm", "mcf", "fotonik3d"} {
		p, _ := ByName(name)
		cfg := testStreamConfig()
		c, err := Characterize(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if c.Hot250 > 0 {
			t.Errorf("%s: generated %d hot rows, profile has none", name, c.Hot250)
		}
	}
}

// TestMultiPassReuse verifies high-ACTs/row workloads revisit rows in
// multiple passes (far reuse), the property Figure 8's NoGCT relies on.
func TestMultiPassReuse(t *testing.T) {
	p, _ := ByName("lbm") // 82 ACTs/row -> 8 passes
	cfg := testStreamConfig()
	cfg.WriteFrac = 0
	cfg.Burst = 1
	s := testutil.Must(NewStream(p, cfg))
	firstSeen := map[uint64]int{}
	lastSeen := map[uint64]int{}
	i := 0
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		row := uint64(cfg.Mem.GlobalRow(cfg.Mem.Decode(r.Line)))
		if _, ok := firstSeen[row]; !ok {
			firstSeen[row] = i
		}
		lastSeen[row] = i
		i++
	}
	// A row's activations must span a large fraction of the stream
	// (multiple passes), not one contiguous burst.
	spanning := 0
	for row, first := range firstSeen {
		if lastSeen[row]-first > i/2 {
			spanning++
		}
	}
	if spanning < len(firstSeen)/2 {
		t.Fatalf("only %d/%d rows span multiple passes", spanning, len(firstSeen))
	}
}

// TestGapMatchesMPKI pins the instruction-gap computation.
func TestGapMatchesMPKI(t *testing.T) {
	p, _ := ByName("bc_t") // MPKI 84.6 -> gap 12
	cfg := testStreamConfig()
	s := testutil.Must(NewStream(p, cfg))
	r, ok := s.Next()
	if !ok || r.Gap != 12 {
		t.Fatalf("gap = %d, want 12", r.Gap)
	}
}
