package resultcache

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"revft/internal/chaos"
	"revft/internal/telemetry"
)

// opCounter is a store filesystem that counts Glob and ReadFile calls.
type opCounter struct {
	mu    sync.Mutex
	globs []string
	reads int
}

func (c *opCounter) fs() chaos.FS {
	return &chaos.InjectFS{FS: chaos.OS, Hook: func(op chaos.Op, path string) error {
		c.mu.Lock()
		defer c.mu.Unlock()
		switch op {
		case chaos.OpGlob:
			c.globs = append(c.globs, path)
		case chaos.OpReadFile:
			c.reads++
		}
		return nil
	}}
}

// take returns the globbed patterns and the read count since the last
// call, and resets both.
func (c *opCounter) take() (globs []string, reads int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	globs, reads = c.globs, c.reads
	c.globs, c.reads = nil, 0
	return globs, reads
}

// fanouts lists the store's fan-out directories.
func fanouts(t testing.TB, dir string) []string {
	t.Helper()
	dirs, err := filepath.Glob(filepath.Join(dir, "??"))
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// setMtime sets a directory's mtime, as a write at that time would have.
func setMtime(t testing.TB, dir string, when time.Time) {
	t.Helper()
	if err := os.Chtimes(dir, when, when); err != nil {
		t.Fatal(err)
	}
}

// ageStore moves every fan-out directory's mtime an hour back, far
// outside racyWindow, as if the store had last been written long ago.
func ageStore(t testing.TB, dir string) {
	t.Helper()
	old := time.Now().Add(-time.Hour)
	for _, d := range fanouts(t, dir) {
		setMtime(t, d, old)
	}
}

// nameIn returns a name whose entry digest falls in the fan-out
// directory prefix, other than skip.
func nameIn(prefix, skip string) string {
	for i := 0; ; i++ {
		name := fmt.Sprintf("n%d", i)
		if name != skip && specDigest(name)[:2] == prefix {
			return name
		}
	}
}

// TestFamilyUnchangedStoreListsOnlyRoot: on an aged store nobody has
// written since the last lookup, a lookup globs the root once and reads
// no entry.
func TestFamilyUnchangedStoreListsOnlyRoot(t *testing.T) {
	dir := t.TempDir()
	fam := specDigest("fam")
	var want []string
	for _, name := range []string{"a", "b", "c", "d"} {
		want = append(want, putFamily(t, &Store{Dir: dir}, name, fam))
	}
	putFamily(t, &Store{Dir: dir}, "x", specDigest("other"))
	ageStore(t, dir)

	var c opCounter
	st := &Store{Dir: dir, FS: c.fs()}
	if got := family(t, st, fam); !reflect.DeepEqual(got, sorted(want...)) {
		t.Fatalf("Family = %v, want %v", got, sorted(want...))
	}
	globs, reads := c.take()
	if n := len(fanouts(t, dir)); len(globs) != 1+n || reads != 5 {
		t.Fatalf("first lookup made %d globs and %d reads, want %d and 5", len(globs), reads, 1+n)
	}
	if got := family(t, st, fam); !reflect.DeepEqual(got, sorted(want...)) {
		t.Fatalf("second Family = %v, want %v", got, sorted(want...))
	}
	if globs, reads := c.take(); len(globs) != 1 || reads != 0 {
		t.Fatalf("lookup on an unchanged store made globs %v and %d reads, want the root glob alone", globs, reads)
	}
}

// TestFamilyRelistsChangedDirectory: after another Store's Put into an
// aged store, the next lookup lists that entry's directory alone, reads
// the new entry alone, and returns it.
func TestFamilyRelistsChangedDirectory(t *testing.T) {
	dir := t.TempDir()
	fam := specDigest("fam")
	a := putFamily(t, &Store{Dir: dir}, "a", fam)
	putFamily(t, &Store{Dir: dir}, "b", specDigest("other"))
	ageStore(t, dir)
	var c opCounter
	st := &Store{Dir: dir, FS: c.fs()}
	family(t, st, fam)
	c.take()

	b := putFamily(t, &Store{Dir: dir}, "c", fam)
	if got := family(t, st, fam); !reflect.DeepEqual(got, sorted(a, b)) {
		t.Fatalf("Family after the foreign Put = %v, want %v", got, sorted(a, b))
	}
	globs, reads := c.take()
	if want := []string{filepath.Join(dir, "??"), filepath.Join(dir, b[:2], "*")}; !reflect.DeepEqual(globs, want) || reads != 1 {
		t.Fatalf("lookup made globs %v and %d reads, want %v and 1", globs, reads, want)
	}
}

// TestFamilySameTickWrite: an entry written into a directory right after
// a lookup listed it, leaving the directory's mtime where the listing saw
// it (a write in the same timestamp tick), is still seen by the next
// lookup.
func TestFamilySameTickWrite(t *testing.T) {
	dir := t.TempDir()
	fam := specDigest("fam")
	st := &Store{Dir: dir}
	a := putFamily(t, st, "a", fam)
	family(t, st, fam)
	fanout := filepath.Dir(st.Path(a))
	fi, err := os.Stat(fanout)
	if err != nil {
		t.Fatal(err)
	}
	b := putFamily(t, &Store{Dir: dir}, nameIn(a[:2], "a"), fam)
	setMtime(t, fanout, fi.ModTime())
	if got := family(t, st, fam); !reflect.DeepEqual(got, sorted(a, b)) {
		t.Fatalf("Family after a same-tick write = %v, want %v", got, sorted(a, b))
	}
}

// TestFamilyRetriesCorruptEntryInAgedStore: a directory holding an entry
// that failed verification is listed again on every lookup, even though
// its mtime does not move, so an entry repaired in place is found.
func TestFamilyRetriesCorruptEntryInAgedStore(t *testing.T) {
	dir := t.TempDir()
	fam := specDigest("fam")
	a := putFamily(t, &Store{Dir: dir}, "a", fam)
	path := (&Store{Dir: dir}).Path(a)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0x01
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	ageStore(t, dir)
	var c opCounter
	st := &Store{Dir: dir, FS: c.fs()}
	for i := 0; i < 2; i++ {
		if got := family(t, st, fam); len(got) != 0 {
			t.Fatalf("Family with a corrupt entry = %v, want none", got)
		}
		if _, reads := c.take(); reads != 1 {
			t.Fatalf("lookup %d read %d entries, want the corrupt one again", i, reads)
		}
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := family(t, st, fam); len(got) != 1 || got[0] != a {
		t.Fatalf("Family after repair = %v, want [a]", got)
	}
}

// TestFamilyMatchesFreshStore is a differential over random Puts from
// the Store under test and from another Store, entry and directory
// removals, and aging: after every step, Family answers as a new Store
// reading the whole directory does. Aging moves the mtimes of the
// directories written since the last aging to a time no directory has
// had before, as a clock that moves on would; so, between agings,
// lookups both skip settled directories and list racy ones.
func TestFamilyMatchesFreshStore(t *testing.T) {
	dir := t.TempDir()
	var c opCounter
	own, foreign := &Store{Dir: dir, FS: c.fs()}, &Store{Dir: dir}
	fams := []string{specDigest("f0"), specDigest("f1"), specDigest("f2")}
	// 40 names in four fan-out directories, so directories hold several
	// entries and a write lands beside indexed ones.
	var names []string
	prefixes := map[string]bool{}
	for i := 0; len(names) < 40; i++ {
		name := fmt.Sprintf("e%d", i)
		p := specDigest(name)[:2]
		if len(prefixes) < 4 {
			prefixes[p] = true
		}
		if prefixes[p] {
			names = append(names, name)
		}
	}
	r := rand.New(rand.NewSource(1))
	epoch := time.Now().Add(-time.Hour)
	skipped := 0
	for step := 0; step < 200; step++ {
		i := r.Intn(len(names))
		d := specDigest(names[i])
		switch k := r.Intn(10); {
		case k < 3:
			putFamily(t, own, names[i], fams[i%3])
		case k < 6:
			putFamily(t, foreign, names[i], fams[i%3])
		case k < 9:
			if err := os.Remove(own.Path(d)); err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
		default:
			if err := os.RemoveAll(filepath.Dir(own.Path(d))); err != nil {
				t.Fatal(err)
			}
		}
		if r.Intn(3) == 0 {
			for _, fd := range fanouts(t, dir) {
				if fi, err := os.Stat(fd); err == nil && fi.ModTime().After(epoch.Add(30*time.Minute)) {
					setMtime(t, fd, epoch.Add(time.Duration(step)*time.Second))
				}
			}
		}
		c.take()
		fresh := &Store{Dir: dir}
		for _, fam := range fams {
			if got, want := family(t, own, fam), family(t, fresh, fam); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: Family = %v, a new Store's = %v", step, got, want)
			}
		}
		if globs, _ := c.take(); len(globs) < 3*(1+len(fanouts(t, dir))) {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("no lookup skipped a directory, so the differential tested only full listings")
	}
}

// noSyncFS skips fsyncs, so a benchmark can build a large store quickly.
type noSyncFS struct{ chaos.FS }

type noSyncFile struct{ chaos.File }

func (noSyncFile) Sync() error { return nil }

func (f noSyncFS) CreateTemp(dir, pattern string) (chaos.File, error) {
	fl, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return noSyncFile{fl}, nil
}

func (noSyncFS) SyncDir(string) error { return nil }

// BenchmarkFamily times a near-miss lookup on a 2,000-entry store whose
// fan-out directories were last written an hour ago, in eight families:
// "unchanged" with nothing written since the last lookup, "foreign-put"
// with one entry stored by another Store (untimed) before each lookup.
// Each foreign Put adds an entry to another family, so the store grows
// by b.N while the looked-up family keeps its 250 entries.
//
//	go test ./internal/resultcache -run '^$' -bench Family
func BenchmarkFamily(b *testing.B) {
	dir := b.TempDir()
	writer := &Store{Dir: dir, FS: noSyncFS{chaos.OS}}
	var fams []string
	for i := 0; i < 8; i++ {
		fams = append(fams, specDigest(fmt.Sprintf("fam%d", i)))
	}
	put := func(name, fam string) string {
		d := specDigest(name)
		if err := writer.Put(context.Background(), d, Meta{Family: fam}, []byte(name), telemetry.Span{}); err != nil {
			b.Fatal(err)
		}
		return d
	}
	for i := 0; i < 2000; i++ {
		put(fmt.Sprintf("entry%d", i), fams[i%len(fams)])
	}
	ageStore(b, dir)
	lookup := func(st *Store) {
		if got, err := st.Family(fams[0]); err != nil || len(got) != 250 {
			b.Fatalf("Family = %d candidates, %v; want 250", len(got), err)
		}
	}
	b.Run("unchanged", func(b *testing.B) {
		st := &Store{Dir: dir}
		lookup(st)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lookup(st)
		}
	})
	// Each foreign Put's directory is set to an old mtime no directory
	// has had before, so it is listed for its mtime, not for racyWindow.
	old, seq := time.Now().Add(-24*time.Hour), 0
	b.Run("foreign-put", func(b *testing.B) {
		st := &Store{Dir: dir}
		lookup(st)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			seq++
			d := put(fmt.Sprintf("foreign%d", seq), fams[1+seq%(len(fams)-1)])
			setMtime(b, filepath.Dir(st.Path(d)), old.Add(time.Duration(seq)*time.Second))
			b.StartTimer()
			lookup(st)
		}
	})
}
