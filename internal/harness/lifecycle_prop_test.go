package harness

// Crash/resume lifecycle machine for the storage plane, built on
// internal/proptest and internal/iofault. Where cache_gc_test.go
// model-checks the janitor under clean IO, this machine generates
// put/get/evict/crash/resume interleavings with the crash landing at a
// generated IO step, and asserts the storage contracts:
//
//   - no valid entry is ever silently lost: every confirmed store is
//     readable after recovery or accounted for by an eviction;
//   - a crash never manufactures corruption: recovery quarantines
//     nothing, because every visible file was written atomically;
//   - resume is bitwise-deterministic: opening the surviving directory
//     twice yields identical state.
//
// TestCacheCrashPointSweepGCAndTouch is the exhaustive companion: it
// enumerates every IO step of a workload that exercises the GC
// janitor's eviction Remove and the disk-hit atime-refresh rewrite,
// and crashes at each one.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/iofault"
	"repro/internal/proptest"
	"repro/internal/testutil"
)

func lcHash(i int) string { return fmt.Sprintf("%08x%08x", i, i) }
func lcKey(i int) string  { return fmt.Sprintf("cell/%08d", i) }

const lcPayload = "0123456789abcdef0123456789abcdef"

func lcDecode(_ string, raw json.RawMessage) (any, error) {
	var s string
	err := json.Unmarshal(raw, &s)
	return s, err
}

// lcEntrySize measures the uniform on-disk entry size once.
func lcEntrySize(tb testing.TB) int64 {
	c, err := NewCellCache(tb.(*testing.T).TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.Store(lcHash(0), lcKey(0), lcPayload, time.Millisecond); err != nil {
		tb.Fatal(err)
	}
	return c.DiskBytes()
}

// cacheWorld is the crash machine's state: a cache instance over a
// directory that survives instance churn, plus the conservation
// ledger.
type cacheWorld struct {
	tb    testing.TB
	dir   string
	clk   time.Time
	cache *CellCache

	budget    int64
	confirmed map[string]bool // stores that returned nil, ever
	evicted   int64           // Evicted total across all instances
	next      int             // next fresh entry index
}

// snapshotEvicted folds the live instance's eviction count into the
// cross-instance ledger; call before abandoning an instance.
func (w *cacheWorld) snapshotEvicted() {
	if w.cache != nil {
		w.evicted += w.cache.Stats().Evicted
	}
}

// open starts a fresh instance over fsys, applying the current budget
// (reopen does not re-enforce it on its own, matching production).
func (w *cacheWorld) open(fsys iofault.FS) error {
	c, err := NewCellCacheFS(w.dir, fsys)
	if err != nil {
		return err
	}
	c.Decode = lcDecode
	c.now = func() time.Time { return w.clk }
	c.SetMaxBytes(w.budget)
	w.cache = c
	return nil
}

// checkRecovery asserts the post-crash contracts on a clean reopen.
func (w *cacheWorld) checkRecovery(t *proptest.T) {
	w.snapshotEvicted()
	if err := w.open(iofault.OS{}); err != nil {
		t.Fatalf("recovery reopen: %v", err)
	}
	first := w.cache
	// Recovery quarantines nothing: atomic writes mean a crash can
	// leave stale or absent entries, never torn visible ones.
	if s := first.Stats(); s.Quarantined != 0 || s.CorruptDropped != 0 {
		t.Fatalf("recovery scan quarantined %d / dropped %d entries — crash manufactured corruption",
			s.Quarantined, s.CorruptDropped)
	}
	w.evicted += first.Stats().Evicted // budget re-enforcement on open

	// Resume is deterministic: a second observer of the same directory
	// agrees byte-for-byte.
	second, err := NewCellCacheFS(w.dir, iofault.OS{})
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	second.Decode = lcDecode
	if a, b := first.DiskBytes(), second.DiskBytes(); a != b {
		t.Fatalf("resume not deterministic: DiskBytes %d then %d", a, b)
	}

	// Conservation: every confirmed store is present and decodable, up
	// to the evictions the janitor accounted for.
	missing := 0
	for h := range w.confirmed {
		v, ok := first.Lookup(h)
		if ok {
			if v != lcPayload {
				t.Fatalf("entry %s decoded to %v, want the stored payload", h, v)
			}
			continue
		}
		missing++
	}
	if s := first.Stats(); s.Quarantined != 0 || s.CorruptDropped != 0 {
		t.Fatalf("post-recovery lookups quarantined %d / dropped %d — a confirmed entry was torn",
			s.Quarantined, s.CorruptDropped)
	}
	if int64(missing) > w.evicted {
		t.Fatalf("%d confirmed entries missing but only %d evictions accounted — entries silently lost",
			missing, w.evicted)
	}
}

// cacheCrashProp is one generated cache lifetime.
func cacheCrashProp(tb testing.TB, entry int64) func(*proptest.T) {
	return func(t *proptest.T) {
		w := &cacheWorld{
			tb:        tb,
			dir:       tb.(*testing.T).TempDir(),
			clk:       time.Unix(1_700_000_000, 0),
			budget:    entry * int64(proptest.IntRange(2, 8).Draw(t, "budgetEntries")),
			confirmed: map[string]bool{},
		}
		if err := w.open(iofault.OS{}); err != nil {
			t.Fatalf("open: %v", err)
		}

		idx := proptest.IntRange(0, 11)
		proptest.Repeat(t, map[string]func(*proptest.T){
			// Run a short burst against an injector that crashes at a
			// generated IO step, then recover and check the contracts.
			"crash-burst": func(t *proptest.T) {
				w.snapshotEvicted()
				inj := iofault.NewInjector(iofault.OS{})
				inj.Plan = iofault.CrashPlan(proptest.IntRange(0, 40).Draw(t, "crashAt"))
				if err := w.open(inj); err != nil {
					// The open scan itself crashed; recover from it.
					w.cache = nil
					w.checkRecovery(t)
					return
				}
				n := proptest.IntRange(1, 6).Draw(t, "burst")
				for i := 0; i < n; i++ {
					j := w.next
					w.next++
					if err := w.cache.Store(lcHash(j), lcKey(j), lcPayload, time.Millisecond); err == nil {
						w.confirmed[lcHash(j)] = true
					} else if !errors.Is(err, iofault.ErrCrashed) {
						t.Fatalf("store under crash plan: unexpected error %v", err)
					}
					w.cache.Lookup(lcHash(idx.Draw(t, "lookup")))
				}
				w.checkRecovery(t)
			},
			"lookup": func(t *proptest.T) {
				h := lcHash(idx.Draw(t, "i"))
				if v, ok := w.cache.Lookup(h); ok && v != lcPayload {
					t.Fatalf("lookup %s returned %v, want payload", h, v)
				}
			},
			"reopen": func(t *proptest.T) {
				w.snapshotEvicted()
				if err := w.open(iofault.OS{}); err != nil {
					t.Fatalf("reopen: %v", err)
				}
			},
			"store": func(t *proptest.T) {
				j := w.next
				w.next++
				if err := w.cache.Store(lcHash(j), lcKey(j), lcPayload, time.Millisecond); err != nil {
					t.Fatalf("store: %v", err)
				}
				w.confirmed[lcHash(j)] = true
			},
			"tick": func(t *proptest.T) {
				w.clk = w.clk.Add(time.Duration(proptest.IntRange(1, 60).Draw(t, "s")) * time.Second)
			},
		})
		w.checkRecovery(t)
	}
}

// TestCacheCrashResumeMachine generates cache lifetimes with crashes at
// generated IO steps.
func TestCacheCrashResumeMachine(t *testing.T) {
	entry := lcEntrySize(t)
	proptest.Check(t, cacheCrashProp(t, entry))
}

// lcSweepWorkload drives the fixed workload the crash-point sweep
// enumerates: stores that overflow the byte budget (GC janitor Remove),
// then a cold instance whose disk-hit lookups rewrite entries in place
// (atime-refresh touch). Store errors are returned via confirmed=false;
// any other error aborts. It returns the hashes whose Store returned
// nil and the evictions both instances accounted.
func lcSweepWorkload(fsys iofault.FS, dir string, entry int64) (confirmed []string, evicted int64, err error) {
	clk := time.Unix(1_700_000_000, 0)
	const entries = 6
	budget := 3*entry + entry/2 // room for 3: stores 4..6 each evict

	c, err := NewCellCacheFS(dir, fsys)
	if err != nil {
		return nil, 0, err
	}
	c.Decode = lcDecode
	c.now = func() time.Time { return clk }
	c.SetMaxBytes(budget)
	for i := 0; i < entries; i++ {
		clk = clk.Add(time.Second)
		if err := c.Store(lcHash(i), lcKey(i), lcPayload, time.Millisecond); err == nil {
			confirmed = append(confirmed, lcHash(i))
		} else if !errors.Is(err, iofault.ErrCrashed) {
			return nil, 0, err
		}
	}
	evicted += c.Stats().Evicted

	// Cold restart: every lookup that hits disk rewrites the entry's
	// atime in place — the touch path the sweep is after.
	c2, err := NewCellCacheFS(dir, fsys)
	if err != nil {
		return confirmed, evicted, err
	}
	c2.Decode = lcDecode
	clk = clk.Add(time.Minute)
	c2.now = func() time.Time { return clk }
	c2.SetMaxBytes(budget)
	for i := 0; i < entries; i++ {
		clk = clk.Add(time.Second)
		c2.Lookup(lcHash(i))
	}
	evicted += c2.Stats().Evicted
	return confirmed, evicted, nil
}

// TestCacheCrashPointSweepGCAndTouch crashes the janitor/touch workload
// at every IO step (strided under the quick tier) and checks recovery:
// nothing quarantined, every confirmed entry present or accounted for
// by an eviction, and the recovered directory deterministic.
func TestCacheCrashPointSweepGCAndTouch(t *testing.T) {
	entry := lcEntrySize(t)

	// Pass 1: count the workload's IO steps on a transparent injector.
	counter := iofault.NewInjector(iofault.OS{})
	if _, _, err := lcSweepWorkload(counter, t.TempDir(), entry); err != nil {
		t.Fatalf("counting pass: %v", err)
	}
	total := counter.Ops()
	stride := testutil.Pick(t, 7, 1)
	testutil.Logf(t, "sweeping %d IO steps (stride %d)", total, stride)

	for k := 0; k < total; k += stride {
		k := k
		t.Run(fmt.Sprintf("crash-at-%03d", k), func(t *testing.T) {
			dir := t.TempDir()
			inj := iofault.NewInjector(iofault.OS{})
			inj.Plan = iofault.CrashPlan(k)
			confirmed, evicted, err := lcSweepWorkload(inj, dir, entry)
			if err != nil && !errors.Is(err, iofault.ErrCrashed) {
				t.Fatalf("workload failed non-crash: %v", err)
			}

			// Recover on a clean filesystem.
			rec, err := NewCellCacheFS(dir, iofault.OS{})
			if err != nil {
				t.Fatalf("recovery open: %v", err)
			}
			rec.Decode = lcDecode
			if s := rec.Stats(); s.Quarantined != 0 || s.CorruptDropped != 0 {
				t.Fatalf("recovery quarantined %d / dropped %d entries", s.Quarantined, s.CorruptDropped)
			}
			missing := 0
			for _, h := range confirmed {
				v, ok := rec.Lookup(h)
				if ok && v != lcPayload {
					t.Fatalf("entry %s decoded to %v", h, v)
				}
				if !ok {
					missing++
				}
			}
			if s := rec.Stats(); s.Quarantined != 0 || s.CorruptDropped != 0 {
				t.Fatalf("recovery lookups quarantined %d / dropped %d — a confirmed entry was torn",
					s.Quarantined, s.CorruptDropped)
			}
			if int64(missing) > evicted {
				t.Fatalf("%d confirmed entries missing, only %d evictions accounted", missing, evicted)
			}

			// The visible directory is all valid .json entries plus, at
			// worst, atomic-write temp litter a crash abandoned —
			// never a torn visible entry.
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			names := make([]string, 0, len(ents))
			for _, e := range ents {
				if e.IsDir() {
					continue
				}
				if strings.HasSuffix(e.Name(), ".json") {
					names = append(names, e.Name())
				} else if !strings.HasPrefix(e.Name(), ".atomic-") {
					t.Fatalf("stray file %q after crash", e.Name())
				}
			}
			sort.Strings(names)
			again, err := NewCellCacheFS(dir, iofault.OS{})
			if err != nil {
				t.Fatalf("second recovery open: %v", err)
			}
			if a, b := rec.DiskBytes(), again.DiskBytes(); a != b {
				t.Fatalf("recovery not deterministic: DiskBytes %d then %d", a, b)
			}
		})
	}
}
