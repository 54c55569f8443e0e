package chaos

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestOSPassthroughAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	final := filepath.Join(dir, "out.json")
	f, err := OS.CreateTemp(dir, "out.json.tmp*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("payload\n")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := OS.Rename(f.Name(), final); err != nil {
		t.Fatal(err)
	}
	if err := OS.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	b, err := OS.ReadFile(final)
	if err != nil || string(b) != "payload\n" {
		t.Fatalf("ReadFile = %q, %v", b, err)
	}
	m, err := OS.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil || len(m) != 0 {
		t.Fatalf("Glob after rename = %v, %v (want none)", m, err)
	}
	if err := OS.Remove(final); err != nil {
		t.Fatal(err)
	}
}

func TestOpNamesRoundTrip(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		got, ok := ParseOp(op.String())
		if !ok || got != op {
			t.Errorf("ParseOp(%q) = %v, %v", op.String(), got, ok)
		}
	}
	if _, ok := ParseOp("nonsense"); ok {
		t.Error("ParseOp accepted an unknown name")
	}
}

// TestInjectFSFailsExactlyTheHookedOps: a hook targeting Sync fails Sync
// and nothing else, and the failed op has no side effect.
func TestInjectFSFailsExactlyTheHookedOps(t *testing.T) {
	dir := t.TempDir()
	fsys := &InjectFS{Hook: func(op Op, path string) error {
		if op == OpSync {
			return &FaultError{Op: op, Path: path}
		}
		return nil
	}}
	f, err := fsys.CreateTemp(dir, "x.tmp*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	serr := f.Sync()
	if !errors.Is(serr, ErrInjected) {
		t.Fatalf("Sync error = %v, want ErrInjected", serr)
	}
	var fe *FaultError
	if !errors.As(serr, &fe) || fe.Op != OpSync {
		t.Fatalf("Sync error = %v, want *FaultError{OpSync}", serr)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// The write before the failed sync landed; the data is intact.
	b, err := os.ReadFile(f.Name())
	if err != nil || string(b) != "abc" {
		t.Fatalf("file content = %q, %v", b, err)
	}
}

// TestInjectFSTornWrite: with Torn set, a failed write leaves exactly the
// first half of its payload.
func TestInjectFSTornWrite(t *testing.T) {
	dir := t.TempDir()
	fail := true
	fsys := &InjectFS{Torn: true, Hook: func(op Op, path string) error {
		if op == OpWrite && fail {
			return &FaultError{Op: op, Path: path}
		}
		return nil
	}}
	f, err := fsys.CreateTemp(dir, "x.tmp*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("abcdefgh")); !errors.Is(err, ErrInjected) {
		t.Fatalf("Write error = %v, want ErrInjected", err)
	}
	fail = false
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(f.Name())
	if string(b) != "abcd" {
		t.Fatalf("torn write left %q, want the first half \"abcd\"", b)
	}
}

// TestProbDeterministicAndTargeted: the same seed produces the same fault
// sequence, only targeted ops fire, and the empirical rate is plausible.
func TestProbDeterministicAndTargeted(t *testing.T) {
	const n = 10000
	run := func(seed uint64) (writes, syncs int) {
		h := Prob(0.25, seed, OpWrite)
		for i := 0; i < n; i++ {
			if h(OpWrite, "f") != nil {
				writes++
			}
			if h(OpSync, "f") != nil {
				syncs++
			}
		}
		return
	}
	w1, s1 := run(7)
	w2, _ := run(7)
	if w1 != w2 {
		t.Errorf("same seed, different fault counts: %d vs %d", w1, w2)
	}
	if s1 != 0 {
		t.Errorf("untargeted op fired %d times", s1)
	}
	if w1 < n/5 || w1 > n/3 {
		t.Errorf("rate 0.25 fired %d/%d times", w1, n)
	}
	w3, _ := run(8)
	if w3 == w1 {
		t.Errorf("different seeds produced identical fault sequences (%d hits)", w1)
	}
	// An empty op list targets everything.
	all := Prob(1, 1)
	if all(OpGlob, "g") == nil || all(OpRemove, "r") == nil {
		t.Error("empty op list should target every op")
	}
}

// counting returns an InjectFS whose hook only tallies operations per
// kind — the healthy-run counter ExploreCrashPoints relies on.
func counting() (*InjectFS, *[numOps]int) {
	var mu sync.Mutex
	var per [numOps]int
	return &InjectFS{Hook: func(op Op, _ string) error {
		mu.Lock()
		per[op]++
		mu.Unlock()
		return nil
	}}, &per
}

// TestInjectFSHooksEveryOp: the hook sees every operation exactly once,
// including the Write/Sync/Close calls on files InjectFS hands out.
func TestInjectFSHooksEveryOp(t *testing.T) {
	dir := t.TempDir()
	c, per := counting()
	f, err := c.CreateTemp(dir, "x.tmp*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	final := filepath.Join(dir, "x")
	if err := c.Rename(f.Name(), final); err != nil {
		t.Fatal(err)
	}
	if err := c.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadFile(final); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Glob(filepath.Join(dir, "*")); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(final); err != nil {
		t.Fatal(err)
	}
	want := [numOps]int{
		OpCreateTemp: 1, OpWrite: 1, OpSync: 1, OpClose: 1,
		OpRename: 1, OpSyncDir: 1, OpReadFile: 1, OpGlob: 1, OpRemove: 1,
	}
	if *per != want {
		t.Errorf("per-op counts = %v, want %v", *per, want)
	}
}

// TestOSOpenAppend: the journal write mode creates on first open and
// appends — never truncates — on later ones, through every wrapper.
func TestOSOpenAppend(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	for i, line := range []string{"one\n", "two\n"} {
		f, err := OS.OpenAppend(path)
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		if _, err := f.Write([]byte(line)); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	b, err := OS.ReadFile(path)
	if err != nil || string(b) != "one\ntwo\n" {
		t.Fatalf("ReadFile = %q, %v (append truncated?)", b, err)
	}

	// InjectFS faults the open without touching the file.
	inj := &InjectFS{Hook: func(op Op, p string) error {
		if op == OpAppend {
			return &FaultError{Op: op, Path: p}
		}
		return nil
	}}
	if _, err := inj.OpenAppend(path); !errors.Is(err, ErrInjected) {
		t.Fatalf("injected append fault = %v, want ErrInjected", err)
	}
	if b, _ := OS.ReadFile(path); string(b) != "one\ntwo\n" {
		t.Errorf("failed open perturbed the file: %q", b)
	}

	// A counting hook tallies the op.
	cnt, per := counting()
	f, err := cnt.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	if per[OpAppend] != 1 {
		t.Errorf("counted %d appends, want 1", per[OpAppend])
	}

	// CrashFS CrashAfter on the open leaves the O_CREATE side effect (an
	// existing file) while the caller sees only the crash.
	fresh := filepath.Join(dir, "fresh.jsonl")
	cfs := NewCrashFS(OS, 0, CrashAfter)
	if _, err := cfs.OpenAppend(fresh); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash-after open = %v, want ErrCrashed", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("crash-after open should have created the file: %v", err)
	}
}
