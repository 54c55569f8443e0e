package chaos

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// atomicWrite is the canonical checkpoint-shaped sequence the crash tests
// exercise: CreateTemp → Write → Sync → Close → Rename → SyncDir, with
// the standard cleanup of the temp file on error.
func atomicWrite(fsys FS, path string, payload []byte) error {
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := f.Write(payload)
	if werr == nil {
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
		return werr
	}
	_ = fsys.SyncDir(dir)
	return nil
}

// TestCrashFSDeadAfterCrash: every operation after the crash point fails
// and has no effect — including the caller's own cleanup.
func TestCrashFSDeadAfterCrash(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out")
	// Crash at op 1 (the Write), mode Before: temp exists, empty, and
	// the error-path Remove must NOT take effect (the process is dead).
	cfs := NewCrashFS(nil, 1, CrashBefore)
	err := atomicWrite(cfs, path, []byte("payload"))
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	cp, ok := cfs.Crashed()
	if !ok || cp.Op != OpWrite || cp.At != 1 {
		t.Fatalf("crash point = %+v, %v; want write at op 1", cp, ok)
	}
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if len(tmps) != 1 {
		t.Fatalf("temp files after crash = %v, want exactly the orphan", tmps)
	}
	if b, err := os.ReadFile(tmps[0]); err != nil || len(b) != 0 {
		t.Errorf("orphan temp content = %q, %v; want empty (write never ran)", b, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("final path exists after pre-rename crash")
	}
}

// TestCrashFSModesOnWrite: Before leaves nothing, After the whole
// payload, Torn exactly half.
func TestCrashFSModesOnWrite(t *testing.T) {
	for _, tc := range []struct {
		mode CrashMode
		want string
	}{
		{CrashBefore, ""},
		{CrashAfter, "payload!"},
		{CrashTorn, "payl"},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			cfs := NewCrashFS(nil, 1, tc.mode)
			err := atomicWrite(cfs, filepath.Join(dir, "out"), []byte("payload!"))
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("err = %v", err)
			}
			tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp*"))
			if len(tmps) != 1 {
				t.Fatalf("temps = %v", tmps)
			}
			b, _ := os.ReadFile(tmps[0])
			if string(b) != tc.want {
				t.Errorf("mode %s left %q, want %q", tc.mode, b, tc.want)
			}
		})
	}
}

// TestCrashFSRenameAfter: a crash just after the rename leaves the new
// file durable under the final name even though the caller saw an error.
func TestCrashFSRenameAfter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out")
	// Ops: 0 CreateTemp, 1 Write, 2 Sync, 3 Close, 4 Rename.
	cfs := NewCrashFS(nil, 4, CrashAfter)
	err := atomicWrite(cfs, path, []byte("v2"))
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v", err)
	}
	b, rerr := os.ReadFile(path)
	if rerr != nil || string(b) != "v2" {
		t.Fatalf("final file = %q, %v; want committed v2", b, rerr)
	}
	// The error-path Remove targeted the (renamed-away) temp name; the
	// committed file must have survived the dead cleanup.
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if len(tmps) != 0 {
		t.Errorf("temps after post-rename crash = %v", tmps)
	}
}

// TestExploreCrashPointsAtomicity drives the generic explorer over the
// atomic-write sequence and asserts the old-or-new invariant at every
// crash point: the final file is always either the previous version or
// the new one, never torn.
func TestExploreCrashPointsAtomicity(t *testing.T) {
	var dir string
	trial := 0
	run := func(fsys FS) error {
		dir = t.TempDir()
		trial++
		if err := atomicWrite(OS, filepath.Join(dir, "out"), []byte("old-version")); err != nil {
			return err
		}
		return atomicWrite(fsys, filepath.Join(dir, "out"), []byte("new-version"))
	}
	verify := func(cp CrashPoint, runErr error) error {
		b, err := os.ReadFile(filepath.Join(dir, "out"))
		if err != nil {
			return fmt.Errorf("final file unreadable: %w", err)
		}
		if s := string(b); s != "old-version" && s != "new-version" {
			return fmt.Errorf("final file torn: %q", s)
		}
		// Once the rename itself has happened (After mode), the new
		// version must be the one under the final name.
		if cp.Op == OpRename && cp.Mode == CrashAfter && string(b) != "new-version" {
			return fmt.Errorf("rename committed but file holds %q", b)
		}
		return nil
	}
	n, err := ExploreCrashPoints(nil, nil, run, verify)
	if err != nil {
		t.Fatal(err)
	}
	// Only the second write goes through the explored FS: 6 ops
	// (CreateTemp, Write, Sync, Close, Rename, SyncDir) x 3 modes.
	if n != 18 {
		t.Errorf("explored %d crash points, want 18", n)
	}
	if trial != 19 {
		t.Errorf("run executed %d times, want 19 (1 healthy + 18 crashes)", trial)
	}
}

// TestExploreCrashPointsPropagatesVerifyFailure: a verify error stops the
// exploration and names the crash point.
func TestExploreCrashPointsPropagatesVerifyFailure(t *testing.T) {
	var dir string
	run := func(fsys FS) error {
		dir = t.TempDir()
		return atomicWrite(fsys, filepath.Join(dir, "out"), []byte("x"))
	}
	boom := errors.New("invariant broken")
	_, err := ExploreCrashPoints(nil, []CrashMode{CrashBefore}, run, func(cp CrashPoint, runErr error) error {
		if cp.At == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the verify failure", err)
	}
	if want := "crash before op 2"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("error should name the crash point: %v", err)
	}
}

// TestCrashFSEffectTable pins what a crash leaves behind for every
// operation kind in every mode, and that the process is dead afterwards.
// Each case opens a handle on the fixture file "old" (op 0, healthy),
// then crashes operation 1, then attempts every operation kind once
// more: all of them must fail with ErrCrashed and change nothing.
func TestCrashFSEffectTable(t *testing.T) {
	// before, after, torn: the directory listing the crash leaves.
	type listings [3]map[string]string
	same := func(m map[string]string) listings { return listings{m, m, m} }
	untouched := map[string]string{"old": "old"}
	for _, tc := range []struct {
		op   Op
		act  func(fsys FS, h File, dir string) error
		want listings
	}{
		{OpCreate, func(fsys FS, h File, dir string) error {
			_, err := fsys.Create(filepath.Join(dir, "new"))
			return err
		}, listings{untouched, {"old": "old", "new": ""}, untouched}},
		{OpCreateTemp, func(fsys FS, h File, dir string) error {
			_, err := fsys.CreateTemp(dir, "t.tmp*")
			return err
		}, listings{untouched, {"old": "old", "t.tmp*": ""}, untouched}},
		{OpWrite, func(fsys FS, h File, dir string) error {
			_, err := h.Write([]byte("payload!"))
			return err
		}, listings{untouched, {"old": "oldpayload!"}, {"old": "oldpayl"}}},
		{OpSync, func(fsys FS, h File, dir string) error {
			return h.Sync()
		}, same(untouched)},
		{OpClose, func(fsys FS, h File, dir string) error {
			return h.Close()
		}, same(untouched)},
		{OpRename, func(fsys FS, h File, dir string) error {
			return fsys.Rename(filepath.Join(dir, "old"), filepath.Join(dir, "moved"))
		}, listings{untouched, {"moved": "old"}, untouched}},
		{OpRemove, func(fsys FS, h File, dir string) error {
			return fsys.Remove(filepath.Join(dir, "old"))
		}, listings{untouched, {}, untouched}},
		{OpReadFile, func(fsys FS, h File, dir string) error {
			b, err := fsys.ReadFile(filepath.Join(dir, "old"))
			if b != nil {
				return fmt.Errorf("crashed read returned %q", b)
			}
			return err
		}, same(untouched)},
		{OpGlob, func(fsys FS, h File, dir string) error {
			m, err := fsys.Glob(filepath.Join(dir, "*"))
			if m != nil {
				return fmt.Errorf("crashed glob returned %q", m)
			}
			return err
		}, same(untouched)},
		{OpSyncDir, func(fsys FS, h File, dir string) error {
			return fsys.SyncDir(dir)
		}, same(untouched)},
		{OpAppend, func(fsys FS, h File, dir string) error {
			_, err := fsys.OpenAppend(filepath.Join(dir, "new"))
			return err
		}, listings{untouched, {"old": "old", "new": ""}, untouched}},
	} {
		for mi, mode := range DefaultCrashModes {
			t.Run(tc.op.String()+"/"+mode.String(), func(t *testing.T) {
				dir := t.TempDir()
				old := filepath.Join(dir, "old")
				if err := os.WriteFile(old, []byte("old"), 0o644); err != nil {
					t.Fatal(err)
				}
				cfs := NewCrashFS(nil, 1, mode)
				h, err := cfs.OpenAppend(old)
				if err != nil {
					t.Fatal(err)
				}
				if err := tc.act(cfs, h, dir); !errors.Is(err, ErrCrashed) {
					t.Fatalf("crashed op returned %v, want ErrCrashed", err)
				}
				if cp, ok := cfs.Crashed(); !ok || cp.At != 1 || cp.Op != tc.op || cp.Mode != mode {
					t.Fatalf("crash point = %+v, %v; want %s op 1 (%s)", cp, ok, mode, tc.op)
				}

				// Dead: every later operation fails and has no effect.
				ghost := filepath.Join(dir, "ghost")
				dead := map[Op]error{}
				var f File
				f, dead[OpCreate] = cfs.Create(ghost)
				if f != nil {
					t.Error("dead Create returned a file")
				}
				f, dead[OpAppend] = cfs.OpenAppend(ghost)
				if f != nil {
					t.Error("dead OpenAppend returned a file")
				}
				f, dead[OpCreateTemp] = cfs.CreateTemp(dir, "d.tmp*")
				if f != nil {
					t.Error("dead CreateTemp returned a file")
				}
				_, dead[OpWrite] = h.Write([]byte("late"))
				dead[OpSync] = h.Sync()
				dead[OpClose] = h.Close()
				dead[OpRename] = cfs.Rename(old, ghost)
				dead[OpRemove] = cfs.Remove(old)
				var b []byte
				b, dead[OpReadFile] = cfs.ReadFile(old)
				var m []string
				m, dead[OpGlob] = cfs.Glob(filepath.Join(dir, "*"))
				if b != nil || m != nil {
					t.Errorf("dead reads returned %q, %q", b, m)
				}
				dead[OpSyncDir] = cfs.SyncDir(dir)
				for op := Op(0); op < numOps; op++ {
					if err, ok := dead[op]; !ok || !errors.Is(err, ErrCrashed) {
						t.Errorf("dead %s returned %v, want ErrCrashed", op, err)
					}
				}

				got := map[string]string{}
				entries, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					b, err := os.ReadFile(filepath.Join(dir, e.Name()))
					if err != nil {
						t.Fatal(err)
					}
					name := e.Name()
					if strings.HasPrefix(name, "t.tmp") {
						name = "t.tmp*"
					}
					got[name] = string(b)
				}
				if want := tc.want[mi]; !reflect.DeepEqual(got, want) {
					t.Errorf("crash %s %s left %v, want %v", mode, tc.op, got, want)
				}
			})
		}
	}
}
