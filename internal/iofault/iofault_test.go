package iofault

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func TestWriteAtomicOS(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.json")
	if err := WriteAtomic(OS{}, path, []byte("hello")); err != nil {
		t.Fatalf("WriteAtomic: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if string(got) != "hello" {
		t.Fatalf("content = %q, want %q", got, "hello")
	}
	// Overwrite must replace, not append, and leave no temp litter.
	if err := WriteAtomic(OS{}, path, []byte("x")); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "x" {
		t.Fatalf("after overwrite = %q, want %q", got, "x")
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("dir has %d entries, want 1 (temp files left behind?)", len(ents))
	}
}

func TestInjectorCountsOps(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(OS{})
	if err := WriteAtomic(in, filepath.Join(dir, "f"), []byte("data")); err != nil {
		t.Fatalf("WriteAtomic through passthrough injector: %v", err)
	}
	// createtemp + write + sync + close + rename + syncdir = 6 ops.
	if got := in.Ops(); got != 6 {
		t.Fatalf("Ops() = %d, want 6", got)
	}
}

func TestInjectorCrashSweepNeverTearsVisibleFile(t *testing.T) {
	// First learn the op count, then crash at every index: the visible
	// file must always hold either the old content or the new, intact.
	probe := NewInjector(OS{})
	pd := t.TempDir()
	if err := WriteAtomic(probe, filepath.Join(pd, "f"), []byte("new-content")); err != nil {
		t.Fatalf("probe: %v", err)
	}
	nops := probe.Ops()

	for i := 0; i < nops; i++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "f")
		if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		in := NewInjector(OS{})
		in.Plan = CrashPlan(i)
		err := WriteAtomic(in, path, []byte("new-content"))
		if err == nil {
			t.Fatalf("crash at op %d: WriteAtomic succeeded", i)
		}
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("crash at op %d: err = %v, want ErrCrashed", i, err)
		}
		got, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatalf("crash at op %d: visible file gone: %v", i, rerr)
		}
		if s := string(got); s != "old" && s != "new-content" {
			t.Fatalf("crash at op %d: visible file torn: %q", i, s)
		}
	}
}

func TestInjectorDropSyncThenCrashTearsFile(t *testing.T) {
	// A dropped sync means the bytes were never durable: a later crash
	// rolls them back, leaving a short (torn) temp file. This is the
	// scenario quarantine detection exists for.
	dir := t.TempDir()
	in := NewInjector(OS{})
	in.Plan = func(op Op) Fault {
		if op.Kind == "sync" {
			return FaultDropSync
		}
		if op.Kind == "syncdir" {
			return FaultCrash
		}
		return FaultNone
	}
	path := filepath.Join(dir, "f")
	err := WriteAtomic(in, path, []byte("supposedly-durable"))
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	// The rename happened (crash came at syncdir), so path exists — but
	// its contents were rolled back to the last durable length: zero.
	got, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatalf("visible file: %v", rerr)
	}
	if len(got) != 0 {
		t.Fatalf("dropped-sync data survived the crash: %q", got)
	}
}

func TestInjectorFaults(t *testing.T) {
	dir := t.TempDir()

	t.Run("eio", func(t *testing.T) {
		in := NewInjector(OS{})
		in.Plan = func(op Op) Fault {
			if op.N == 0 {
				return FaultEIO
			}
			return FaultNone
		}
		err := WriteAtomic(in, filepath.Join(dir, "eio"), []byte("x"))
		if !errors.Is(err, syscall.EIO) {
			t.Fatalf("err = %v, want EIO", err)
		}
	})

	t.Run("enospc-on-write-is-torn", func(t *testing.T) {
		in := NewInjector(OS{})
		in.Plan = func(op Op) Fault {
			if op.Kind == "write" {
				return FaultENOSPC
			}
			return FaultNone
		}
		err := WriteAtomic(in, filepath.Join(dir, "enospc"), []byte("abcdef"))
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("err = %v, want ENOSPC", err)
		}
	})

	t.Run("short-write", func(t *testing.T) {
		in := NewInjector(OS{})
		in.Plan = func(op Op) Fault {
			if op.Kind == "write" {
				return FaultShortWrite
			}
			return FaultNone
		}
		err := WriteAtomic(in, filepath.Join(dir, "short"), []byte("abcdef"))
		if !errors.Is(err, io.ErrShortWrite) {
			t.Fatalf("err = %v, want ErrShortWrite", err)
		}
	})

	t.Run("after-crash-everything-fails", func(t *testing.T) {
		in := NewInjector(OS{})
		in.Plan = CrashPlan(0)
		if err := in.MkdirAll(filepath.Join(dir, "d"), 0o755); !errors.Is(err, ErrCrashed) {
			t.Fatalf("crash op err = %v", err)
		}
		if _, err := in.ReadFile(filepath.Join(dir, "d")); !errors.Is(err, ErrCrashed) {
			t.Fatalf("post-crash op err = %v", err)
		}
		if !in.Crashed() {
			t.Fatal("Crashed() = false")
		}
	})

	t.Run("onfault-observes", func(t *testing.T) {
		in := NewInjector(OS{})
		in.Plan = CrashPlan(2)
		var saw []Op
		in.OnFault = func(op Op, f Fault) { saw = append(saw, op) }
		WriteAtomic(in, filepath.Join(dir, "obs"), []byte("x")) //nolint:errcheck
		if len(saw) != 1 || saw[0].N != 2 {
			t.Fatalf("OnFault saw %v, want one op with N=2", saw)
		}
		if got := in.Faults(); len(got) != 1 || got[0].N != 2 {
			t.Fatalf("Faults() = %v", got)
		}
	})
}

func TestThenCrash(t *testing.T) {
	plan := ThenCrash(func(op Op) Fault { return FaultDropSync }, 3)
	if got := plan(Op{N: 3}); got != FaultCrash {
		t.Fatalf("plan(3) = %v, want crash", got)
	}
	if got := plan(Op{N: 1}); got != FaultDropSync {
		t.Fatalf("plan(1) = %v, want drop-sync", got)
	}
	if got := ThenCrash(nil, 0)(Op{N: 5}); got != FaultNone {
		t.Fatalf("nil base plan(5) = %v, want none", got)
	}
}
