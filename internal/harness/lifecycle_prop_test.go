package harness

// Crash/resume lifecycle machine for the storage plane, built on
// internal/proptest and internal/iofault. The machine generates
// put/get/crash/resume interleavings with the crash landing at a
// generated IO step, and asserts the storage contracts:
//
//   - no valid entry is ever lost: every confirmed store is readable
//     after recovery;
//   - a crash never manufactures corruption: recovery quarantines
//     nothing, because every visible file was written atomically;
//   - resume is deterministic: looking up every entry from a second
//     instance leaves the directory listing as it was.
//
// TestCacheCrashPointSweep is the exhaustive companion: it enumerates
// every IO step of a store-then-reopen-and-lookup workload and crashes
// at each one.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

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

// dirListing returns the sorted "name size" lines of dir's top level,
// the state a resumed run sees.
func dirListing(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(ents))
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		out = append(out, fmt.Sprintf("%s %d", e.Name(), info.Size()))
	}
	sort.Strings(out)
	return out, nil
}

// recoverCache opens dir on a clean filesystem, looks up every visible
// entry and every confirmed one, and reports the first broken contract:
// a confirmed entry missing, an entry not decoding to the stored
// payload, or any entry quarantined. Visible entries are looked up
// too, since a store that crashed after its rename leaves one that was
// never confirmed.
func recoverCache(dir string, confirmed []string) error {
	c, err := NewCellCacheFS(dir, iofault.OS{})
	if err != nil {
		return fmt.Errorf("recovery open: %w", err)
	}
	c.Decode = lcDecode
	visible, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	for _, name := range visible {
		h := strings.TrimSuffix(filepath.Base(name), ".json")
		if v, ok := c.Lookup(h); ok && v != lcPayload {
			return fmt.Errorf("entry %s decoded to %v, want the stored payload", h, v)
		}
	}
	for _, h := range confirmed {
		v, ok := c.Lookup(h)
		if !ok {
			return fmt.Errorf("confirmed entry %s lost", h)
		}
		if v != lcPayload {
			return fmt.Errorf("entry %s decoded to %v, want the stored payload", h, v)
		}
	}
	if s := c.Stats(); s.Quarantined != 0 || s.CorruptDropped != 0 {
		return fmt.Errorf("recovery quarantined %d / dropped %d entries — crash manufactured corruption",
			s.Quarantined, s.CorruptDropped)
	}
	return nil
}

// checkResume runs recovery twice over dir and requires both passes to
// keep every confirmed entry and to leave the directory listing as
// they found it.
func checkResume(dir string, confirmed []string) error {
	if err := recoverCache(dir, confirmed); err != nil {
		return err
	}
	first, err := dirListing(dir)
	if err != nil {
		return err
	}
	if err := recoverCache(dir, confirmed); err != nil {
		return fmt.Errorf("second recovery: %w", err)
	}
	second, err := dirListing(dir)
	if err != nil {
		return err
	}
	if fmt.Sprint(first) != fmt.Sprint(second) {
		return fmt.Errorf("resume not deterministic: directory %v then %v", first, second)
	}
	return nil
}

// cacheWorld is the crash machine's state: a cache instance over a
// directory that survives instance churn, plus the stores it confirmed.
type cacheWorld struct {
	dir       string
	cache     *CellCache
	confirmed []string // stores that returned nil, ever
	next      int      // next fresh entry index
}

func (w *cacheWorld) open(fsys iofault.FS) error {
	c, err := NewCellCacheFS(w.dir, fsys)
	if err != nil {
		return err
	}
	c.Decode = lcDecode
	w.cache = c
	return nil
}

// store writes the next fresh entry and records it when it lands.
func (w *cacheWorld) store() error {
	j := w.next
	w.next++
	err := w.cache.Store(lcHash(j), lcKey(j), lcPayload)
	if err == nil {
		w.confirmed = append(w.confirmed, lcHash(j))
	}
	return err
}

// checkRecovery asserts the post-crash contracts and leaves a clean
// instance open.
func (w *cacheWorld) checkRecovery(t *proptest.T) {
	if err := checkResume(w.dir, w.confirmed); err != nil {
		t.Fatalf("%v", err)
	}
	if err := w.open(iofault.OS{}); err != nil {
		t.Fatalf("recovery reopen: %v", err)
	}
}

// cacheCrashProp is one generated cache lifetime.
func cacheCrashProp(tb testing.TB) func(*proptest.T) {
	return func(t *proptest.T) {
		w := &cacheWorld{dir: tb.(*testing.T).TempDir()}
		if err := w.open(iofault.OS{}); err != nil {
			t.Fatalf("open: %v", err)
		}

		idx := proptest.IntRange(0, 11)
		proptest.Repeat(t, map[string]func(*proptest.T){
			// Run a short burst against an injector that crashes at a
			// generated IO step, then recover and check the contracts.
			"crash-burst": func(t *proptest.T) {
				inj := iofault.NewInjector(iofault.OS{})
				inj.Plan = iofault.CrashPlan(proptest.IntRange(0, 40).Draw(t, "crashAt"))
				if err := w.open(inj); err != nil {
					// The open itself crashed; recover from it.
					w.checkRecovery(t)
					return
				}
				n := proptest.IntRange(1, 6).Draw(t, "burst")
				for i := 0; i < n; i++ {
					if err := w.store(); err != nil && !errors.Is(err, iofault.ErrCrashed) {
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
				if err := w.open(iofault.OS{}); err != nil {
					t.Fatalf("reopen: %v", err)
				}
			},
			"store": func(t *proptest.T) {
				if err := w.store(); err != nil {
					t.Fatalf("store: %v", err)
				}
			},
		})
		w.checkRecovery(t)
	}
}

// TestCacheCrashResumeMachine generates cache lifetimes with crashes at
// generated IO steps.
func TestCacheCrashResumeMachine(t *testing.T) {
	proptest.Check(t, cacheCrashProp(t))
}

// lcSweepWorkload drives the fixed workload the crash-point sweep
// enumerates: six stores, then six lookups from a fresh instance over
// the same directory. A store that crashed is left out of confirmed;
// any other error aborts. It returns the hashes whose Store returned
// nil.
func lcSweepWorkload(fsys iofault.FS, dir string) (confirmed []string, err error) {
	const entries = 6
	c, err := NewCellCacheFS(dir, fsys)
	if err != nil {
		return nil, err
	}
	c.Decode = lcDecode
	for i := 0; i < entries; i++ {
		if err := c.Store(lcHash(i), lcKey(i), lcPayload); err == nil {
			confirmed = append(confirmed, lcHash(i))
		} else if !errors.Is(err, iofault.ErrCrashed) {
			return nil, err
		}
	}

	c2, err := NewCellCacheFS(dir, fsys)
	if err != nil {
		return confirmed, err
	}
	c2.Decode = lcDecode
	for i := 0; i < entries; i++ {
		c2.Lookup(lcHash(i))
	}
	return confirmed, nil
}

// TestCacheCrashPointSweep crashes the store-then-lookup workload at
// every IO step (strided under the quick tier) and checks recovery:
// nothing quarantined, every confirmed entry present, no stray file,
// and the recovered directory deterministic.
func TestCacheCrashPointSweep(t *testing.T) {
	// Pass 1: count the workload's IO steps on a transparent injector.
	counter := iofault.NewInjector(iofault.OS{})
	if _, err := lcSweepWorkload(counter, t.TempDir()); err != nil {
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
			confirmed, err := lcSweepWorkload(inj, dir)
			if err != nil && !errors.Is(err, iofault.ErrCrashed) {
				t.Fatalf("workload failed non-crash: %v", err)
			}
			if err := checkResume(dir, confirmed); err != nil {
				t.Fatal(err)
			}

			// The visible directory is all valid .json entries plus, at
			// worst, atomic-write temp litter a crash abandoned —
			// never a torn visible entry.
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if !e.IsDir() && !strings.HasSuffix(e.Name(), ".json") && !strings.HasPrefix(e.Name(), ".atomic-") {
					t.Fatalf("stray file %q after crash", e.Name())
				}
			}
		})
	}
}
