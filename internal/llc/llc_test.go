package llc

import (
	"testing"

	"repro/internal/workload"
)

func small() *Cache {
	return MustNew(Config{Bytes: 64 * 64, Ways: 4, LineBytes: 64}) // 64 lines
}

func TestDefaultGeometry(t *testing.T) {
	c := MustNew(Default())
	if c.cfg.Bytes != 8<<20 || c.cfg.Ways != 16 {
		t.Fatalf("config %+v", c.cfg)
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := small()
	if miss, _, _ := c.Access(42, false); !miss {
		t.Fatal("cold access hit")
	}
	if miss, _, _ := c.Access(42, false); miss {
		t.Fatal("warm access missed")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("stats %d/%d", c.Hits, c.Misses)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	c := MustNew(Config{Bytes: 4 * 64, Ways: 4, LineBytes: 64}) // one set
	c.Access(0, true)                                           // dirty
	var sawWB bool
	for i := uint64(1); i <= 8; i++ {
		if _, wb, has := c.Access(i, false); has && wb == 0 {
			sawWB = true
		}
	}
	if !sawWB {
		t.Fatal("dirty line 0 never written back")
	}
	if c.Writebacks == 0 {
		t.Fatal("writeback not counted")
	}
}

func TestWriteHitDirtiesLine(t *testing.T) {
	c := MustNew(Config{Bytes: 4 * 64, Ways: 4, LineBytes: 64})
	c.Access(0, false) // clean fill
	c.Access(0, true)  // write hit dirties
	wbs := int64(0)
	for i := uint64(1); i <= 8; i++ {
		c.Access(i, false)
	}
	wbs = c.Writebacks
	if wbs == 0 {
		t.Fatal("written line evicted without writeback")
	}
}

func TestMissRate(t *testing.T) {
	c := small()
	for i := 0; i < 10; i++ {
		c.Access(7, false)
	}
	if r := c.MissRate(); r != 0.1 {
		t.Fatalf("miss rate = %v, want 0.1", r)
	}
	if MustNew(Default()).MissRate() != 0 {
		t.Fatal("empty cache miss rate not 0")
	}
}

func TestBadConfigErrors(t *testing.T) {
	if _, err := New(Config{Bytes: 100, Ways: 3, LineBytes: 64}); err == nil {
		t.Fatal("bad config should error")
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("zero config should error")
	}
}

// sliceSource replays raw requests.
type sliceSource struct {
	reqs []workload.Request
	i    int
}

func (s *sliceSource) Next() (workload.Request, bool) {
	if s.i >= len(s.reqs) {
		return workload.Request{}, false
	}
	r := s.reqs[s.i]
	s.i++
	return r, true
}

func TestFilterAbsorbsHits(t *testing.T) {
	// Raw stream: the same line 10 times with gap 9. Only the first
	// access misses; the forwarded request carries all absorbed
	// instructions in later gaps.
	var reqs []workload.Request
	for i := 0; i < 10; i++ {
		reqs = append(reqs, workload.Request{Gap: 9, Line: 5})
	}
	reqs = append(reqs, workload.Request{Gap: 9, Line: 99}) // second miss
	f := NewFilter(small(), &sliceSource{reqs: reqs})

	first, ok := f.Next()
	if !ok || first.Line != 5 || first.Gap != 9 {
		t.Fatalf("first = %+v,%v", first, ok)
	}
	second, ok := f.Next()
	if !ok || second.Line != 99 {
		t.Fatalf("second = %+v,%v", second, ok)
	}
	// 9 absorbed hits x (9 gap + 1 inst) + own gap 9 = 99.
	if second.Gap != 99 {
		t.Fatalf("second gap = %d, want 99 (hit gaps folded)", second.Gap)
	}
	if _, ok := f.Next(); ok {
		t.Fatal("extra request")
	}
	if f.Insts() != 11*10 {
		t.Fatalf("insts = %d, want 110", f.Insts())
	}
}

func TestFilterEmitsWritebacks(t *testing.T) {
	// One-set cache: write-allocate 5 lines; evictions of dirty lines
	// must appear as write requests right after the triggering miss.
	c := MustNew(Config{Bytes: 4 * 64, Ways: 4, LineBytes: 64})
	var reqs []workload.Request
	for i := uint64(0); i < 8; i++ {
		reqs = append(reqs, workload.Request{Gap: 0, Write: true, Line: i})
	}
	f := NewFilter(c, &sliceSource{reqs: reqs})
	var reads, writes int
	for {
		r, ok := f.Next()
		if !ok {
			break
		}
		if r.Write {
			writes++
		} else {
			reads++
		}
	}
	if reads != 8 {
		t.Fatalf("reads = %d, want 8 (all misses)", reads)
	}
	if writes != 4 {
		t.Fatalf("writebacks = %d, want 4 (dirty evictions)", writes)
	}
}

// TestFilterReducesTrafficForLocalStream checks the end-to-end point:
// a cache-friendly raw stream produces far fewer memory requests than
// it has accesses, at the same instruction count.
func TestFilterReducesTrafficForLocalStream(t *testing.T) {
	var reqs []workload.Request
	for rep := 0; rep < 50; rep++ {
		for line := uint64(0); line < 32; line++ {
			reqs = append(reqs, workload.Request{Gap: 3, Line: line})
		}
	}
	f := NewFilter(small(), &sliceSource{reqs: reqs})
	forwarded := 0
	instsOut := int64(0)
	for {
		r, ok := f.Next()
		if !ok {
			break
		}
		forwarded++
		instsOut += int64(r.Gap) + 1
	}
	if forwarded != 32 {
		t.Fatalf("forwarded = %d, want 32 compulsory misses", forwarded)
	}
	// Conservation: forwarded gaps plus the trailing carry (compute
	// after the last miss) account for every raw instruction.
	if instsOut+int64(f.GapCarry()) != f.Insts() {
		t.Fatalf("instruction conservation broken: %d out + %d carry vs %d in",
			instsOut, f.GapCarry(), f.Insts())
	}
}
