package chaos

import (
	"sync"

	"revft/internal/rng"
)

// Hook decides the fate of one filesystem operation before it runs:
// return nil to let it proceed, or an error to fail it in place of the
// real call. Hooks must be safe for concurrent use.
type Hook func(op Op, path string) error

// landedError, wrapped around a hook's error, makes the failed operation
// take effect before the caller sees the error: the op happened, but the
// caller never saw it succeed. A landed open creates the file and closes it
// again — the empty journal or orphaned temp file a crash right after the
// open leaves behind. InjectFS strips the wrapper before returning.
type landedError struct{ error }

// tornError makes a failed Write land the first half of its bytes; other
// operations have no partial effect and fail as with a bare error.
type tornError struct{ error }

// effect is what a failed operation leaves behind.
type effect uint8

const (
	none effect = iota
	landed
	torn
)

// InjectFS wraps an FS and consults Hook before every operation,
// including the Write/Sync/Close calls on files it hands out. The error
// the hook returns decides what the failed operation leaves behind: by
// default nothing; the op's full effect when the hook wraps its error as
// landed (CrashFS's CrashAfter); the first half of a Write's bytes when
// it wraps it as torn (CrashTorn), or for every failed Write when Torn is
// set. Close releases the real handle whatever the hook says, so injected
// faults never leak descriptors.
type InjectFS struct {
	// FS is the underlying filesystem; nil means OS.
	FS FS
	// Hook is consulted before every operation; nil injects nothing.
	Hook Hook
	// Torn makes failed Writes leave half their bytes behind.
	Torn bool
}

func (f *InjectFS) base() FS {
	if f.FS == nil {
		return OS
	}
	return f.FS
}

// fault consults the hook: it returns what a failed op leaves behind and
// the error its caller sees, stripped of the effect wrapper.
func (f *InjectFS) fault(op Op, path string) (effect, error) {
	if f.Hook == nil {
		return none, nil
	}
	switch err := f.Hook(op, path).(type) {
	case nil:
		return none, nil
	case landedError:
		return landed, err.error
	case tornError:
		return torn, err.error
	default:
		if f.Torn {
			return torn, err
		}
		return none, err
	}
}

// do runs call unless the hook fails op. A landed failure runs it anyway,
// and the caller sees only the hook's error.
func (f *InjectFS) do(op Op, path string, call func() error) error {
	eff, err := f.fault(op, path)
	if err == nil {
		return call()
	}
	if eff == landed {
		_ = call()
	}
	return err
}

// open runs an open call unless the hook fails op, wrapping the file it
// returns; a landed failure opens the file and closes it again.
func (f *InjectFS) open(op Op, path string, call func() (File, error)) (File, error) {
	eff, err := f.fault(op, path)
	if err != nil {
		if eff == landed {
			if file, oerr := call(); oerr == nil {
				_ = file.Close()
			}
		}
		return nil, err
	}
	file, err := call()
	if err != nil {
		return nil, err
	}
	return &injectFile{fs: f, f: file}, nil
}

func (f *InjectFS) Create(name string) (File, error) {
	return f.open(OpCreate, name, func() (File, error) { return f.base().Create(name) })
}

func (f *InjectFS) OpenAppend(name string) (File, error) {
	return f.open(OpAppend, name, func() (File, error) { return f.base().OpenAppend(name) })
}

func (f *InjectFS) CreateTemp(dir, pattern string) (File, error) {
	return f.open(OpCreateTemp, dir, func() (File, error) { return f.base().CreateTemp(dir, pattern) })
}

func (f *InjectFS) Rename(oldpath, newpath string) error {
	return f.do(OpRename, newpath, func() error { return f.base().Rename(oldpath, newpath) })
}

func (f *InjectFS) Remove(name string) error {
	return f.do(OpRemove, name, func() error { return f.base().Remove(name) })
}

func (f *InjectFS) ReadFile(name string) ([]byte, error) {
	if _, err := f.fault(OpReadFile, name); err != nil {
		return nil, err
	}
	return f.base().ReadFile(name)
}

func (f *InjectFS) Glob(pattern string) ([]string, error) {
	if _, err := f.fault(OpGlob, pattern); err != nil {
		return nil, err
	}
	return f.base().Glob(pattern)
}

func (f *InjectFS) SyncDir(dir string) error {
	return f.do(OpSyncDir, dir, func() error { return f.base().SyncDir(dir) })
}

type injectFile struct {
	fs *InjectFS
	f  File
}

func (i *injectFile) Write(p []byte) (int, error) {
	eff, err := i.fs.fault(OpWrite, i.f.Name())
	switch {
	case err == nil:
		return i.f.Write(p)
	case eff == none:
		return 0, err
	case eff == torn:
		p = p[:(len(p)+1)/2]
	}
	n, werr := i.f.Write(p)
	if werr != nil {
		return n, werr
	}
	return n, err
}

func (i *injectFile) Sync() error { return i.fs.do(OpSync, i.f.Name(), i.f.Sync) }

func (i *injectFile) Close() error {
	_, err := i.fs.fault(OpClose, i.f.Name())
	if cerr := i.f.Close(); err == nil {
		return cerr
	}
	return err
}

func (i *injectFile) Name() string { return i.f.Name() }

// Prob returns a hook that fails each operation in ops independently with
// the given probability, deterministically from seed. An empty ops list
// targets every operation. Rates at or below 0 never fire; at or above 1
// they always fire.
func Prob(rate float64, seed uint64, ops ...Op) Hook {
	var mask [numOps]bool
	if len(ops) == 0 {
		for i := range mask {
			mask[i] = true
		}
	}
	for _, op := range ops {
		if int(op) < len(mask) {
			mask[op] = true
		}
	}
	var mu sync.Mutex
	r := rng.New(seed)
	return func(op Op, path string) error {
		if int(op) >= len(mask) || !mask[op] {
			return nil
		}
		mu.Lock()
		hit := r.Bool(rate)
		mu.Unlock()
		if hit {
			return &FaultError{Op: op, Path: path}
		}
		return nil
	}
}
