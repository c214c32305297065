package iofault

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sync"
	"syscall"
)

// ErrCrashed is the error every operation returns once the Injector
// has simulated a crash: from the storage plane's point of view the
// process is dead and no further IO can happen. Test with errors.Is.
var ErrCrashed = errors.New("iofault: simulated crash")

// Fault is the verdict the Injector's plan passes on one operation.
type Fault int

const (
	// FaultNone performs the operation normally.
	FaultNone Fault = iota
	// FaultEIO fails the operation with syscall.EIO without performing
	// it.
	FaultEIO
	// FaultENOSPC fails the operation with syscall.ENOSPC. Writes land
	// a prefix of their data first — a full disk tears files mid-write.
	FaultENOSPC
	// FaultShortWrite applies only to write operations: half the data
	// reaches the file and io.ErrShortWrite is returned. Other
	// operations proceed normally.
	FaultShortWrite
	// FaultDropSync silently skips a Sync (returning success), leaving
	// the file's recent writes non-durable: a later FaultCrash rolls
	// them back. Other operations proceed normally.
	FaultDropSync
	// FaultCrash kills the storage plane at this operation: the
	// operation itself half-happens (writes land a prefix, renames and
	// removes do not happen), every later operation fails with
	// ErrCrashed, and all writes since each file's last effective Sync
	// are rolled back — the page cache dies with the process.
	FaultCrash
)

func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultEIO:
		return "eio"
	case FaultENOSPC:
		return "enospc"
	case FaultShortWrite:
		return "short-write"
	case FaultDropSync:
		return "drop-sync"
	case FaultCrash:
		return "crash"
	}
	return fmt.Sprintf("fault(%d)", int(f))
}

// Op describes one filesystem operation as the Injector saw it: its
// 0-based global index, what it was, and the path it touched.
type Op struct {
	N    int
	Kind string // mkdirall readfile readdir createtemp write sync close rename remove truncate syncdir
	Path string
}

func (o Op) String() string { return fmt.Sprintf("op %d: %s %s", o.N, o.Kind, o.Path) }

// Injector wraps an FS and injects faults according to a deterministic
// plan. Every operation — including the per-File write/sync/close
// calls — consumes one global index, so "crash at the Nth IO step"
// is well defined and a sweep over 0..Ops()-1 visits every step a
// campaign performs. Safe for concurrent use; indices are assigned in
// arrival order, so sweeps that need a reproducible op sequence should
// serialize their workload (one worker).
//
// The crash model is power-loss-shaped: at the crash op, writes tear
// (a prefix lands), renames/removes do not happen, and every byte
// written since a file's last *effective* Sync is rolled back — so a
// dropped sync (FaultDropSync) converts a later crash into a torn
// file even when the code believed its data was safe. After a crash
// every operation fails with ErrCrashed until the Injector is reset.
type Injector struct {
	fs FS

	// Plan decides the fault for each operation; nil means FaultNone.
	// It must be deterministic in Op for reproducible sweeps.
	Plan func(Op) Fault
	// OnFault, when non-nil, observes every non-FaultNone verdict —
	// the crash sweep uses it to abort the campaign like a dead
	// process would.
	OnFault func(Op, Fault)

	mu      sync.Mutex
	n       int
	crashed bool
	// synced tracks, per path, the durable length: bytes guaranteed on
	// "stable storage". Writes advance a shadow length; an effective
	// Sync promotes it. A crash truncates every path back to its
	// durable length. Entries follow renames.
	written map[string]int64
	synced  map[string]int64
	faults  []Op
}

// NewInjector wraps fsys. With a nil Plan it is a transparent
// operation counter — run the workload once to learn Ops(), then sweep.
func NewInjector(fsys FS) *Injector {
	return &Injector{
		fs:      fsys,
		written: map[string]int64{},
		synced:  map[string]int64{},
	}
}

// CrashPlan returns a plan that crashes at operation n.
func CrashPlan(n int) func(Op) Fault {
	return func(op Op) Fault {
		if op.N == n {
			return FaultCrash
		}
		return FaultNone
	}
}

// ThenCrash layers a crash at operation n over another plan (which may
// be nil). The crash wins at index n; the base plan rules elsewhere.
func ThenCrash(base func(Op) Fault, n int) func(Op) Fault {
	return func(op Op) Fault {
		if op.N == n {
			return FaultCrash
		}
		if base == nil {
			return FaultNone
		}
		return base(op)
	}
}

// Ops reports how many operations have been observed so far: after a
// fault-free run, the sweep space of crash indices.
func (in *Injector) Ops() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.n
}

// Faults returns the operations that drew a non-FaultNone verdict.
func (in *Injector) Faults() []Op {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Op(nil), in.faults...)
}

// Crashed reports whether the simulated crash has happened.
func (in *Injector) Crashed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed
}

// step assigns the next op index and resolves its fault. It performs
// the crash bookkeeping (rollback of unsynced writes) inline.
func (in *Injector) step(kind, path string) (Op, Fault, error) {
	in.mu.Lock()
	op := Op{N: in.n, Kind: kind, Path: path}
	in.n++
	if in.crashed {
		in.mu.Unlock()
		return op, FaultNone, fmt.Errorf("%s: %w", op, ErrCrashed)
	}
	f := FaultNone
	if in.Plan != nil {
		f = in.Plan(op)
	}
	if f != FaultNone {
		in.faults = append(in.faults, op)
	}
	if f == FaultCrash {
		in.crashed = true
	}
	cb := in.OnFault
	in.mu.Unlock()
	if cb != nil && f != FaultNone {
		cb(op, f)
	}
	return op, f, nil
}

// rollback models the page cache dying: every path whose shadow length
// exceeds its durable length is truncated back. Called once, at the
// crash op, after that op's own partial effect has been applied.
func (in *Injector) rollback() {
	in.mu.Lock()
	type cut struct {
		path string
		size int64
	}
	var cuts []cut
	for path, w := range in.written {
		if s := in.synced[path]; w > s {
			cuts = append(cuts, cut{path, s})
		}
	}
	in.mu.Unlock()
	for _, c := range cuts {
		// Best effort: the file may have been removed already.
		in.fs.Truncate(c.path, c.size) //nolint:errcheck
	}
}

func (in *Injector) MkdirAll(path string, perm fs.FileMode) error {
	op, f, err := in.step("mkdirall", path)
	if err != nil {
		return err
	}
	switch f {
	case FaultEIO:
		return fmt.Errorf("%s: %w", op, syscall.EIO)
	case FaultENOSPC:
		return fmt.Errorf("%s: %w", op, syscall.ENOSPC)
	case FaultCrash:
		in.rollback()
		return fmt.Errorf("%s: %w", op, ErrCrashed)
	}
	return in.fs.MkdirAll(path, perm)
}

func (in *Injector) ReadFile(path string) ([]byte, error) {
	op, f, err := in.step("readfile", path)
	if err != nil {
		return nil, err
	}
	switch f {
	case FaultEIO, FaultENOSPC:
		return nil, fmt.Errorf("%s: %w", op, syscall.EIO)
	case FaultCrash:
		in.rollback()
		return nil, fmt.Errorf("%s: %w", op, ErrCrashed)
	}
	return in.fs.ReadFile(path)
}

func (in *Injector) ReadDir(path string) ([]fs.DirEntry, error) {
	op, f, err := in.step("readdir", path)
	if err != nil {
		return nil, err
	}
	switch f {
	case FaultEIO, FaultENOSPC:
		return nil, fmt.Errorf("%s: %w", op, syscall.EIO)
	case FaultCrash:
		in.rollback()
		return nil, fmt.Errorf("%s: %w", op, ErrCrashed)
	}
	return in.fs.ReadDir(path)
}

func (in *Injector) CreateTemp(dir, pattern string) (File, error) {
	op, f, err := in.step("createtemp", dir)
	if err != nil {
		return nil, err
	}
	switch f {
	case FaultEIO:
		return nil, fmt.Errorf("%s: %w", op, syscall.EIO)
	case FaultENOSPC:
		return nil, fmt.Errorf("%s: %w", op, syscall.ENOSPC)
	case FaultCrash:
		in.rollback()
		return nil, fmt.Errorf("%s: %w", op, ErrCrashed)
	}
	file, err := in.fs.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	in.mu.Lock()
	in.written[file.Name()] = 0
	in.synced[file.Name()] = 0
	in.mu.Unlock()
	return &injectFile{in: in, f: file}, nil
}

func (in *Injector) Rename(oldpath, newpath string) error {
	op, f, err := in.step("rename", oldpath)
	if err != nil {
		return err
	}
	switch f {
	case FaultEIO:
		return fmt.Errorf("%s: %w", op, syscall.EIO)
	case FaultENOSPC:
		return fmt.Errorf("%s: %w", op, syscall.ENOSPC)
	case FaultCrash:
		in.rollback()
		return fmt.Errorf("%s: %w", op, ErrCrashed)
	}
	if err := in.fs.Rename(oldpath, newpath); err != nil {
		return err
	}
	in.mu.Lock()
	if w, ok := in.written[oldpath]; ok {
		in.written[newpath] = w
		in.synced[newpath] = in.synced[oldpath]
		delete(in.written, oldpath)
		delete(in.synced, oldpath)
	}
	in.mu.Unlock()
	return nil
}

func (in *Injector) Remove(path string) error {
	op, f, err := in.step("remove", path)
	if err != nil {
		return err
	}
	switch f {
	case FaultEIO, FaultENOSPC:
		return fmt.Errorf("%s: %w", op, syscall.EIO)
	case FaultCrash:
		in.rollback()
		return fmt.Errorf("%s: %w", op, ErrCrashed)
	}
	if err := in.fs.Remove(path); err != nil {
		return err
	}
	in.mu.Lock()
	delete(in.written, path)
	delete(in.synced, path)
	in.mu.Unlock()
	return nil
}

func (in *Injector) Truncate(path string, size int64) error {
	op, f, err := in.step("truncate", path)
	if err != nil {
		return err
	}
	switch f {
	case FaultEIO, FaultENOSPC:
		return fmt.Errorf("%s: %w", op, syscall.EIO)
	case FaultCrash:
		in.rollback()
		return fmt.Errorf("%s: %w", op, ErrCrashed)
	}
	return in.fs.Truncate(path, size)
}

func (in *Injector) SyncDir(path string) error {
	op, f, err := in.step("syncdir", path)
	if err != nil {
		return err
	}
	switch f {
	case FaultEIO, FaultENOSPC:
		return fmt.Errorf("%s: %w", op, syscall.EIO)
	case FaultDropSync:
		return nil
	case FaultCrash:
		in.rollback()
		return fmt.Errorf("%s: %w", op, ErrCrashed)
	}
	return in.fs.SyncDir(path)
}

// injectFile threads a File's write/sync/close calls back through the
// Injector's op stream.
type injectFile struct {
	in *Injector
	f  File
}

func (jf *injectFile) Name() string { return jf.f.Name() }

func (jf *injectFile) Write(p []byte) (int, error) {
	op, f, err := jf.in.step("write", jf.f.Name())
	if err != nil {
		return 0, err
	}
	switch f {
	case FaultEIO:
		return 0, fmt.Errorf("%s: %w", op, syscall.EIO)
	case FaultENOSPC, FaultShortWrite, FaultCrash:
		// A torn write: half the data lands before the failure.
		n, werr := jf.f.Write(p[:len(p)/2])
		jf.in.mu.Lock()
		jf.in.written[jf.f.Name()] += int64(n)
		jf.in.mu.Unlock()
		if f == FaultCrash {
			jf.in.rollback()
			return n, fmt.Errorf("%s: %w", op, ErrCrashed)
		}
		if werr != nil {
			return n, werr
		}
		if f == FaultENOSPC {
			return n, fmt.Errorf("%s: %w", op, syscall.ENOSPC)
		}
		return n, fmt.Errorf("%s: %w", op, io.ErrShortWrite)
	}
	n, err := jf.f.Write(p)
	jf.in.mu.Lock()
	jf.in.written[jf.f.Name()] += int64(n)
	jf.in.mu.Unlock()
	return n, err
}

func (jf *injectFile) Sync() error {
	op, f, err := jf.in.step("sync", jf.f.Name())
	if err != nil {
		return err
	}
	switch f {
	case FaultEIO:
		return fmt.Errorf("%s: %w", op, syscall.EIO)
	case FaultENOSPC:
		return fmt.Errorf("%s: %w", op, syscall.ENOSPC)
	case FaultDropSync:
		return nil // the lie: success without durability
	case FaultCrash:
		jf.in.rollback()
		return fmt.Errorf("%s: %w", op, ErrCrashed)
	}
	if err := jf.f.Sync(); err != nil {
		return err
	}
	jf.in.mu.Lock()
	jf.in.synced[jf.f.Name()] = jf.in.written[jf.f.Name()]
	jf.in.mu.Unlock()
	return nil
}

func (jf *injectFile) Close() error {
	op, f, err := jf.in.step("close", jf.f.Name())
	if err != nil {
		jf.f.Close() // release the real descriptor regardless
		return err
	}
	switch f {
	case FaultEIO, FaultENOSPC:
		jf.f.Close()
		return fmt.Errorf("%s: %w", op, syscall.EIO)
	case FaultCrash:
		jf.f.Close()
		jf.in.rollback()
		return fmt.Errorf("%s: %w", op, ErrCrashed)
	}
	return jf.f.Close()
}
