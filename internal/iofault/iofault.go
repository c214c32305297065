// Package iofault is the seam between the storage plane and the
// filesystem: a small FS interface covering exactly the operations the
// durable artifacts perform (cache entries and run reports),
// a passthrough OS implementation, and a deterministic fault Injector
// (inject.go) that can fail, tear or "crash" any operation by index.
//
// Production code constructs its storage types over OS{} (the public
// constructors default to it); crash-consistency tests construct the
// same types over an Injector and sweep faults across every IO step —
// see the crash-point sweep in internal/exp and docs/ROBUSTNESS.md.
package iofault

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// File is the writable handle surface of FS: what atomic write-then-
// rename needs and nothing more.
type File interface {
	io.Writer
	// Name returns the file's path, as os.File.Name does.
	Name() string
	// Sync flushes the file's data to stable storage.
	Sync() error
	Close() error
}

// FS is the filesystem surface the storage plane performs durable IO
// through. It is deliberately narrow — open/write/sync/rename/remove/
// readdir plus the directory fsync that makes renames durable — so a
// fault injector can enumerate every operation a campaign performs.
type FS interface {
	MkdirAll(path string, perm fs.FileMode) error
	ReadFile(path string) ([]byte, error)
	ReadDir(path string) ([]fs.DirEntry, error)
	// CreateTemp creates a new temporary file in dir, as os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	// Truncate changes the size of the named file, as os.Truncate. The
	// storage plane never truncates; the Injector uses it to model data
	// lost to a crash that followed a dropped sync.
	Truncate(path string, size int64) error
	// SyncDir fsyncs the directory itself, making a preceding rename in
	// it durable: without it a power loss can forget the new name even
	// though the file contents were synced. Filesystems that do not
	// support directory fsync are tolerated (the call is a no-op there).
	SyncDir(path string) error
}

// OS is the passthrough FS over the real filesystem; the zero value is
// ready to use and what every public storage constructor defaults to.
type OS struct{}

func (OS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (OS) ReadFile(path string) ([]byte, error)         { return os.ReadFile(path) }
func (OS) ReadDir(path string) ([]fs.DirEntry, error)   { return os.ReadDir(path) }
func (OS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OS) Remove(path string) error                     { return os.Remove(path) }
func (OS) Truncate(path string, size int64) error       { return os.Truncate(path, size) }

func (OS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// SyncDir opens the directory and fsyncs it. Errors meaning "this
// filesystem cannot fsync a directory" (EINVAL, ENOTSUP — tmpfs on
// some kernels, network mounts) are swallowed: the rename is then as
// durable as the platform allows, which was the status quo; everything
// else is reported.
func (OS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
		return nil
	}
	return err
}

// WriteAtomic lands data at path with the full crash discipline: temp
// file in the same directory, write, fsync, close, rename over path,
// fsync of the parent directory. A crash at any step leaves either the
// previous file or none — never a torn one — and the rename itself
// survives power loss. It is the one write path every durable artifact
// (cache entry, run report) goes through.
func WriteAtomic(fsys FS, path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, ".atomic-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		fsys.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		fsys.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(tmp.Name())
		return err
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		fsys.Remove(tmp.Name())
		return err
	}
	return fsys.SyncDir(dir)
}
