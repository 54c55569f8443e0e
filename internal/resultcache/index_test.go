package resultcache

import (
	"context"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"revft/internal/chaos"
	"revft/internal/telemetry"
)

// readCounter is a store filesystem that counts ReadFile calls.
func readCounter(reads *atomic.Int64) chaos.FS {
	return &chaos.InjectFS{FS: chaos.OS, Hook: func(op chaos.Op, _ string) error {
		if op == chaos.OpReadFile {
			reads.Add(1)
		}
		return nil
	}}
}

func putFamily(t *testing.T, st *Store, name, fam string) string {
	t.Helper()
	d := specDigest(name)
	if err := st.Put(context.Background(), d, Meta{Family: fam}, []byte(name), telemetry.Span{}); err != nil {
		t.Fatal(err)
	}
	return d
}

func family(t *testing.T, st *Store, fam string) []string {
	t.Helper()
	got, err := st.Family(fam)
	if err != nil {
		t.Fatalf("Family: %v", err)
	}
	return got
}

func sorted(ds ...string) []string {
	out := append([]string(nil), ds...)
	sort.Strings(out)
	return out
}

// TestFamilyIndexesEachEntryOnce: the first lookup reads every entry,
// later lookups read only names they have not seen, and the result is
// the family's digests in sorted order, other families left out.
func TestFamilyIndexesEachEntryOnce(t *testing.T) {
	var reads atomic.Int64
	st := &Store{Dir: t.TempDir(), FS: readCounter(&reads)}
	fam, other := specDigest("fam"), specDigest("other")
	var want []string
	for _, name := range []string{"a", "b", "c"} {
		want = append(want, putFamily(t, st, name, fam))
	}
	putFamily(t, st, "x", other)
	putFamily(t, st, "nofamily", "")

	if got := family(t, st, fam); !reflect.DeepEqual(got, sorted(want...)) {
		t.Fatalf("Family = %v, want %v", got, sorted(want...))
	}
	if n := reads.Load(); n != 5 {
		t.Fatalf("first lookup read %d entries, want 5", n)
	}
	if got := family(t, st, other); len(got) != 1 || got[0] != specDigest("x") {
		t.Fatalf("Family(other) = %v, want [x]", got)
	}
	d := putFamily(t, st, "d", fam)
	want = append(want, d)
	if got := family(t, st, fam); !reflect.DeepEqual(got, sorted(want...)) {
		t.Fatalf("Family after Put = %v, want %v", got, sorted(want...))
	}
	if n := reads.Load(); n != 6 {
		t.Fatalf("lookups read %d entries in all, want 6 (each entry once)", n)
	}
	if _, err := st.Family("not-a-digest"); err == nil {
		t.Fatal("Family accepted an invalid family digest")
	}
}

// TestFamilySeesOtherWriter: an entry another Store (another process)
// puts into the same directory after the first lookup is found by the
// next one.
func TestFamilySeesOtherWriter(t *testing.T) {
	dir := t.TempDir()
	fam := specDigest("fam")
	st := &Store{Dir: dir}
	a := putFamily(t, st, "a", fam)
	if got := family(t, st, fam); len(got) != 1 || got[0] != a {
		t.Fatalf("Family = %v, want [a]", got)
	}
	b := putFamily(t, &Store{Dir: dir}, "b", fam)
	if got := family(t, st, fam); !reflect.DeepEqual(got, sorted(a, b)) {
		t.Fatalf("Family after the other writer's Put = %v, want %v", got, sorted(a, b))
	}
}

// TestFamilyCorruptedAfterIndexing: the index is a candidate filter, not
// a verdict. An entry corrupted after it was indexed is still returned,
// and Get refuses it.
func TestFamilyCorruptedAfterIndexing(t *testing.T) {
	st := &Store{Dir: t.TempDir()}
	fam := specDigest("fam")
	a := putFamily(t, st, "a", fam)
	family(t, st, fam)
	data, err := os.ReadFile(st.Path(a))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(st.Path(a), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := family(t, st, fam); len(got) != 1 || got[0] != a {
		t.Fatalf("Family = %v, want the indexed candidate a", got)
	}
	var ce *CorruptEntryError
	if _, _, err := st.Get(a, telemetry.Span{}); !errors.As(err, &ce) {
		t.Fatalf("Get of the corrupted candidate = %v, want *CorruptEntryError", err)
	}
}

// TestFamilyDropsRemovedEntry: a name gone from disk drops out of the
// index, and a new entry under it is read afresh.
func TestFamilyDropsRemovedEntry(t *testing.T) {
	st := &Store{Dir: t.TempDir()}
	fam, other := specDigest("fam"), specDigest("other")
	a, b := putFamily(t, st, "a", fam), putFamily(t, st, "b", fam)
	family(t, st, fam)
	if err := os.Remove(st.Path(a)); err != nil {
		t.Fatal(err)
	}
	if got := family(t, st, fam); len(got) != 1 || got[0] != b {
		t.Fatalf("Family after removing a = %v, want [b]", got)
	}
	// Reappearing under another family proves the old index value went.
	putFamily(t, st, "a", other)
	if got := family(t, st, other); len(got) != 1 || got[0] != a {
		t.Fatalf("Family(other) = %v, want [a]", got)
	}
}

// TestFamilyIndexesHealedEntry: an entry corrupt at first sight is not
// indexed, so it is read again on every lookup and found once healed.
func TestFamilyIndexesHealedEntry(t *testing.T) {
	st := &Store{Dir: t.TempDir()}
	fam := specDigest("fam")
	a := specDigest("a")
	if err := os.MkdirAll(filepath.Dir(st.Path(a)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.Path(a), []byte("not json\npayload"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got := family(t, st, fam); len(got) != 0 {
			t.Fatalf("Family with a corrupt entry = %v, want none", got)
		}
	}
	putFamily(t, st, "a", fam)
	if got := family(t, st, fam); len(got) != 1 || got[0] != a {
		t.Fatalf("Family after healing = %v, want [a]", got)
	}
}

// TestFamilyConcurrent runs lookups against concurrent Puts, from this
// Store and from another one on the same directory; run it under -race.
// Once the writers are done, one more lookup sees every entry.
func TestFamilyConcurrent(t *testing.T) {
	dir := t.TempDir()
	fam := specDigest("fam")
	st := &Store{Dir: dir}
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var wg sync.WaitGroup
	for w, writer := range []*Store{st, {Dir: dir}} {
		wg.Add(1)
		go func(w int, writer *Store) {
			defer wg.Done()
			for i := w; i < len(names); i += 2 {
				d := specDigest(names[i])
				if err := writer.Put(context.Background(), d, Meta{Family: fam}, []byte(names[i]), telemetry.Span{}); err != nil {
					t.Error(err)
				}
			}
		}(w, writer)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := st.Family(fam); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var want []string
	for _, n := range names {
		want = append(want, specDigest(n))
	}
	if got := family(t, st, fam); !reflect.DeepEqual(got, sorted(want...)) {
		t.Fatalf("Family = %v, want %v", got, sorted(want...))
	}
}

// TestFamilyRacingLookupsReadOnce: lookups racing on a store the index
// has not seen read each entry once between them.
func TestFamilyRacingLookupsReadOnce(t *testing.T) {
	dir := t.TempDir()
	fam := specDigest("fam")
	for _, name := range []string{"a", "b", "c", "d"} {
		putFamily(t, &Store{Dir: dir}, name, fam)
	}
	var reads atomic.Int64
	st := &Store{Dir: dir, FS: readCounter(&reads)}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := st.Family(fam); err != nil || len(got) != 4 {
				t.Errorf("Family = %v, %v; want 4 entries", got, err)
			}
		}()
	}
	wg.Wait()
	if n := reads.Load(); n != 4 {
		t.Fatalf("racing lookups read %d entries, want 4", n)
	}
}

// TestDecodeDigest: the index's decoder round-trips every full lowercase
// hex digest and refuses anything else.
func TestDecodeDigest(t *testing.T) {
	d := specDigest("x")
	if got, ok := decodeDigest(d); !ok || hex.EncodeToString(got[:]) != d {
		t.Fatalf("decodeDigest(%q) = %x, %v", d, got, ok)
	}
	for _, bad := range []string{"", "abc", d[:63] + "G", d[:63] + "A", d[:63] + "/", d + "0"} {
		if _, ok := decodeDigest(bad); ok {
			t.Errorf("decodeDigest(%q) accepted", bad)
		}
	}
}
