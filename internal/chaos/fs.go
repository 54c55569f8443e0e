// Package chaos is the fault-injection layer under the runtime's durable
// I/O: a small filesystem interface (FS) that the checkpoint, journal,
// cache, and trace paths write through, one interposer (InjectFS) that
// fails any operation a Hook picks, a crash-point explorer that kills the
// write path at every individual operation in turn, and a retry policy
// for transient failures.
//
// InjectFS holds the single rule for what a failed operation leaves on
// disk: nothing, its full effect (landed), or half of a Write (torn).
// Seeded random faults (Prob), a process crash at operation k (CrashFS)
// and the explorer's op counter are all hooks on it.
//
// The paper's whole argument is that a computation survives faults in its
// own machinery; this package holds the runtime to the same standard. The
// sweep checkpoint path claims crash-safety (fsync before rename, old-or-new
// atomicity) and the telemetry trace claims graceful degradation — chaos
// turns both claims into tested properties by making every Sync, Rename,
// and Write a place where a fault or a crash can be injected
// deterministically.
//
// The zero-cost default is OS, a direct passthrough to package os; code
// threaded through FS behaves identically to direct os calls when no
// injector is stacked on top.
package chaos

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Op identifies one filesystem operation kind, the granularity at which
// faults and crashes are injected.
type Op uint8

const (
	// OpCreate is FS.Create.
	OpCreate Op = iota
	// OpCreateTemp is FS.CreateTemp.
	OpCreateTemp
	// OpWrite is File.Write.
	OpWrite
	// OpSync is File.Sync.
	OpSync
	// OpClose is File.Close.
	OpClose
	// OpRename is FS.Rename.
	OpRename
	// OpRemove is FS.Remove.
	OpRemove
	// OpReadFile is FS.ReadFile.
	OpReadFile
	// OpGlob is FS.Glob.
	OpGlob
	// OpSyncDir is FS.SyncDir.
	OpSyncDir
	// OpAppend is FS.OpenAppend.
	OpAppend
	numOps
)

var opNames = [numOps]string{
	"create", "createtemp", "write", "sync", "close",
	"rename", "remove", "readfile", "glob", "syncdir", "append",
}

// String returns the lower-case operation name ("write", "sync", ...).
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// ParseOp is the inverse of String. It reports false for unknown names.
func ParseOp(name string) (Op, bool) {
	for i, n := range opNames {
		if n == name {
			return Op(i), true
		}
	}
	return 0, false
}

// WriteOps are the mutating operations of the durable write path — the
// set live fault injection (revft-mc -chaos) targets. Read-side
// operations are left clean so a resume can always load the checkpoint
// that survived.
var WriteOps = []Op{OpCreate, OpCreateTemp, OpWrite, OpSync, OpClose, OpRename, OpSyncDir, OpAppend}

// File is the writable file handle surface the runtime needs: enough for
// an atomic write-fsync-rename sequence and for appending trace lines.
type File interface {
	io.Writer
	// Sync flushes the file's data to stable storage.
	Sync() error
	// Close closes the handle.
	Close() error
	// Name returns the path the file was opened with.
	Name() string
}

// FS is the filesystem surface of the runtime's durable I/O paths:
// checkpoint writes (CreateTemp → Write → Sync → Close → Rename →
// SyncDir), checkpoint loads (ReadFile), stale-temp cleanup (Glob,
// Remove), and trace files (Create, Write). Implementations other than
// OS wrap another FS and inject faults or crashes per call.
type FS interface {
	// Create creates or truncates the named file for writing.
	Create(name string) (File, error)
	// OpenAppend opens the named file for appending, creating it if
	// needed — the journal write mode: every Write lands after whatever
	// the file already holds, so existing records are never clobbered.
	OpenAppend(name string) (File, error)
	// CreateTemp creates a new temporary file in dir as os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes the named file.
	Remove(name string) error
	// ReadFile returns the named file's contents.
	ReadFile(name string) ([]byte, error)
	// Glob returns the paths matching pattern, as filepath.Glob.
	Glob(pattern string) ([]string, error)
	// SyncDir fsyncs the directory itself, making a preceding rename
	// durable against power loss.
	SyncDir(dir string) error
}

// OS is the passthrough FS backed directly by package os — the zero-cost
// default every runtime path uses when no fault injector is configured.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Create(name string) (File, error) { return os.Create(name) }

func (osFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
}

func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) Glob(pattern string) ([]string, error) { return filepath.Glob(pattern) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// ErrInjected is the sentinel under every fault a Hook injects; detect it
// with errors.Is to distinguish injected faults from real I/O errors.
var ErrInjected = errors.New("chaos: injected fault")

// FaultError is an injected fault, carrying the operation and path it hit.
// It unwraps to ErrInjected.
type FaultError struct {
	Op   Op
	Path string
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("chaos: injected %s fault on %s", e.Op, e.Path)
}

func (e *FaultError) Unwrap() error { return ErrInjected }

// ErrCrashed is the sentinel a CrashFS returns from the killed operation
// and from every operation after it — the process is "dead" and nothing
// else it attempts takes effect.
var ErrCrashed = errors.New("chaos: simulated crash")

// WriteFileAtomic writes data to path through fsys (OS if nil) so that a
// crash at any instant leaves either the previous file or the new one
// under path, never a torn mix: write a temp file in the destination
// directory, fsync it, rename it over path, then fsync the directory so
// the rename itself survives power loss.
//
// A successful write also reclaims stale temp files a crashed earlier
// writer left next to path (a process killed between CreateTemp and
// Rename orphans its temp file; only the next completed write can safely
// reclaim it). Errors are unprefixed; callers wrap them with their own.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	if fsys == nil {
		fsys = OS
	}
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("temp file for %s: %w", path, err)
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	if werr == nil {
		// The fsync before rename is load-bearing: without it a power
		// loss can commit the rename while the data blocks are still
		// unwritten, leaving a truncated file under the final name.
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = fsys.Rename(tmp, path)
	}
	if werr != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("write %s: %w", path, werr)
	}
	// Make the rename durable. Best-effort: some filesystems reject
	// directory fsync, and the write itself already succeeded.
	_ = fsys.SyncDir(dir)
	// Our own temp file was just renamed away, so anything still matching
	// the pattern is stale. Best-effort: a failure here leaves litter,
	// never a bad file.
	if stale, gerr := fsys.Glob(filepath.Join(dir, filepath.Base(path)+".tmp*")); gerr == nil {
		for _, s := range stale {
			_ = fsys.Remove(s)
		}
	}
	return nil
}
