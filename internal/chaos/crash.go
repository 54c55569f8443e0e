package chaos

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// CrashMode says how the operation at the crash point itself behaves.
// Together the modes bracket every state a real crash can leave behind:
// the op never happened, the op fully happened but the process died
// before observing it, or (for writes) the op died midway.
type CrashMode uint8

const (
	// CrashBefore kills the process just before the operation: it has no
	// effect on disk.
	CrashBefore CrashMode = iota
	// CrashAfter kills the process just after the operation: its effect
	// is on disk, but the caller never sees it succeed — so none of the
	// caller's cleanup or follow-up runs.
	CrashAfter
	// CrashTorn kills a Write midway: half the bytes land. For
	// operations without partial effects it behaves like CrashBefore.
	CrashTorn
)

// String returns "before", "after", or "torn".
func (m CrashMode) String() string {
	switch m {
	case CrashBefore:
		return "before"
	case CrashAfter:
		return "after"
	case CrashTorn:
		return "torn"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// CrashPoint identifies one simulated crash: the At'th filesystem
// operation (0-based, in call order) died in the given mode. Op and Path
// record which call that turned out to be.
type CrashPoint struct {
	At   int64
	Mode CrashMode
	Op   Op
	Path string
}

func (p CrashPoint) String() string {
	return fmt.Sprintf("crash %s op %d (%s %s)", p.Mode, p.At, p.Op, p.Path)
}

// CrashFS wraps an FS and simulates a process crash at the At'th
// operation: that operation behaves per Mode, and every later operation
// fails with ErrCrashed without touching the filesystem — the process is
// dead, so no cleanup or error handling after the crash point can have
// any effect. The surviving on-disk state is exactly what a real crash
// at that instant would leave. Close still releases the real handle, as
// the kernel would reclaim a dead process's descriptors.
type CrashFS struct {
	// The FS methods are InjectFS's, running the crash hook; the alias
	// keeps the embedded field out of CrashFS's API.
	injectFS
	at   int64
	mode CrashMode

	mu    sync.Mutex
	n     int64
	point CrashPoint
}

type injectFS = InjectFS

// NewCrashFS returns a CrashFS over base (OS if nil) that crashes at
// operation number at (0-based) in the given mode.
func NewCrashFS(base FS, at int64, mode CrashMode) *CrashFS {
	c := &CrashFS{at: at, mode: mode}
	c.injectFS = InjectFS{FS: base, Hook: c.hook}
	return c
}

// Crashed reports whether the crash point was reached, and which
// operation it killed.
func (c *CrashFS) Crashed() (CrashPoint, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.point, c.n > c.at
}

// hook counts operations and kills the at'th in the configured mode;
// every later one fails with no effect.
func (c *CrashFS) hook(op Op, path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := c.n
	c.n++
	switch {
	case k < c.at:
		return nil
	case k > c.at:
		return ErrCrashed
	}
	c.point = CrashPoint{At: k, Mode: c.mode, Op: op, Path: path}
	switch c.mode {
	case CrashAfter:
		return landedError{ErrCrashed}
	case CrashTorn:
		return tornError{ErrCrashed}
	}
	return ErrCrashed
}

// DefaultCrashModes is the mode set ExploreCrashPoints uses when given
// none: every operation is killed before, after, and (for writes) midway.
var DefaultCrashModes = []CrashMode{CrashBefore, CrashAfter, CrashTorn}

// ExploreCrashPoints is the crash-point exploration harness. It first
// executes run under a counting hook to learn how many filesystem
// operations the healthy path performs, then re-executes it once per
// (operation index, mode) pair with a CrashFS that kills exactly that
// operation. After each crashed execution it calls verify with the crash
// point and run's error, so the caller can assert on the surviving
// on-disk state (e.g. "the checkpoint is the old one or the new one,
// never a torn one, and resume reproduces the uninterrupted results").
//
// run must be self-contained: each invocation gets fresh state (its own
// directory) and performs the same operation sequence, so that operation
// k means the same call in every execution. run's error is not itself a
// failure — a crashed run is supposed to fail — it is handed to verify.
//
// ExploreCrashPoints returns the number of crash simulations performed.
// It stops at the first verify failure, wrapping it with the crash point
// that produced it.
func ExploreCrashPoints(base FS, modes []CrashMode, run func(fs FS) error, verify func(cp CrashPoint, runErr error) error) (int, error) {
	if len(modes) == 0 {
		modes = DefaultCrashModes
	}
	var ops atomic.Int64
	count := &InjectFS{FS: base, Hook: func(Op, string) error {
		ops.Add(1)
		return nil
	}}
	if err := run(count); err != nil {
		return 0, fmt.Errorf("chaos: healthy run failed before exploration: %w", err)
	}
	total := ops.Load()
	if total == 0 {
		return 0, fmt.Errorf("chaos: healthy run performed no filesystem operations; nothing to explore")
	}
	explored := 0
	for at := int64(0); at < total; at++ {
		for _, mode := range modes {
			cfs := NewCrashFS(base, at, mode)
			runErr := run(cfs)
			cp, ok := cfs.Crashed()
			if !ok {
				return explored, fmt.Errorf("chaos: crash point %d/%d (mode %s) never reached — run is not performing a deterministic operation sequence", at, total, mode)
			}
			explored++
			if err := verify(cp, runErr); err != nil {
				return explored, fmt.Errorf("chaos: %v: %w", cp, err)
			}
		}
	}
	return explored, nil
}
