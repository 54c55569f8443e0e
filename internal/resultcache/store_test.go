package resultcache

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"revft/internal/telemetry"
)

func digestOf(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// specDigest builds a deterministic fake spec digest distinct from the
// content hash, as in real use (the key is the spec's digest, not the
// payload's).
func specDigest(name string) string {
	sum := sha256.Sum256([]byte("spec:" + name))
	return hex.EncodeToString(sum[:])
}

func TestPutGetRoundTrip(t *testing.T) {
	st := &Store{Dir: t.TempDir(), Metrics: telemetry.New()}
	payload := []byte(`{"experiment":"recovery","points":[1,2,3]}`)
	d := specDigest("a")
	meta := Meta{Family: specDigest("fam"), Experiment: "recovery", Tool: "test"}
	if err := st.Put(context.Background(), d, meta, payload, telemetry.Span{}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, m, err := st.Get(d, telemetry.Span{})
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: got %q want %q", got, payload)
	}
	if m.SpecDigest != d || m.Family != meta.Family || m.Experiment != "recovery" || m.Tool != "test" {
		t.Fatalf("meta mismatch: %+v", m)
	}
	if m.ContentHash != digestOf(payload) {
		t.Fatalf("content hash: got %s want %s", m.ContentHash, digestOf(payload))
	}
	if m.Size != int64(len(payload)) {
		t.Fatalf("size: got %d want %d", m.Size, len(payload))
	}
	if n := st.Metrics.Counter("cache.hits").Load(); n != 1 {
		t.Fatalf("cache.hits = %d, want 1", n)
	}
}

func TestGetMiss(t *testing.T) {
	st := &Store{Dir: t.TempDir(), Metrics: telemetry.New()}
	_, _, err := st.Get(specDigest("nothing"), telemetry.Span{})
	if !errors.Is(err, ErrMiss) {
		t.Fatalf("err = %v, want ErrMiss", err)
	}
	if n := st.Metrics.Counter("cache.misses").Load(); n != 1 {
		t.Fatalf("cache.misses = %d, want 1", n)
	}
}

func TestInvalidDigestRejected(t *testing.T) {
	st := &Store{Dir: t.TempDir()}
	for _, bad := range []string{"", "abc", "../../../../etc/passwd", specDigest("x")[:63] + "G"} {
		if err := st.Put(context.Background(), bad, Meta{}, []byte("p"), telemetry.Span{}); err == nil {
			t.Errorf("Put(%q) accepted an invalid digest", bad)
		}
		if _, _, err := st.Get(bad, telemetry.Span{}); err == nil || errors.Is(err, ErrMiss) {
			t.Errorf("Get(%q) = %v, want invalid-digest error", bad, err)
		}
	}
}

// TestTamperedPayloadIsCorruptMiss flips one byte of a stored payload and
// checks the read fails with a typed, full-hash CorruptEntryError — the
// acceptance property: a tampered entry is detected, never served.
func TestTamperedPayloadIsCorruptMiss(t *testing.T) {
	st := &Store{Dir: t.TempDir(), Metrics: telemetry.New()}
	payload := []byte(`{"experiment":"recovery","grid":[0.001,0.01]}`)
	d := specDigest("tamper")
	if err := st.Put(context.Background(), d, Meta{}, payload, telemetry.Span{}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	path := st.Path(d)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = st.Get(d, telemetry.Span{})
	var ce *CorruptEntryError
	if !errors.As(err, &ce) {
		t.Fatalf("Get after tamper: err = %v, want *CorruptEntryError", err)
	}
	if ce.Reason != "hash-mismatch" {
		t.Fatalf("reason = %q, want hash-mismatch", ce.Reason)
	}
	if len(ce.RecordedHash) != 64 || len(ce.ComputedHash) != 64 {
		t.Fatalf("hash fields must be full-length hex: recorded %d, computed %d chars", len(ce.RecordedHash), len(ce.ComputedHash))
	}
	if ce.RecordedHash == ce.ComputedHash {
		t.Fatal("recorded and computed hashes should differ after tamper")
	}
	if n := st.Metrics.Counter("cache.corrupt").Load(); n != 1 {
		t.Fatalf("cache.corrupt = %d, want 1", n)
	}
}

// TestMisfiledEntryIsCorrupt copies a valid entry into another digest's
// slot; the slot-binding check must reject it even though its content
// hash verifies.
func TestMisfiledEntryIsCorrupt(t *testing.T) {
	st := &Store{Dir: t.TempDir()}
	d1, d2 := specDigest("one"), specDigest("two")
	if err := st.Put(context.Background(), d1, Meta{}, []byte("payload"), telemetry.Span{}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	data, err := os.ReadFile(st.Path(d1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(st.Path(d2)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.Path(d2), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = st.Get(d2, telemetry.Span{})
	var ce *CorruptEntryError
	if !errors.As(err, &ce) || ce.Reason != "digest-mismatch" {
		t.Fatalf("Get misfiled entry: err = %v, want digest-mismatch CorruptEntryError", err)
	}
}

// TestTruncatedAndGarbageEntries covers the remaining corruption shapes:
// an entry with no header newline and one with an unparseable header.
func TestTruncatedAndGarbageEntries(t *testing.T) {
	st := &Store{Dir: t.TempDir()}
	cases := map[string][]byte{
		"truncated":  []byte(`{"format":"revft-cache/1"`),
		"bad-header": []byte("not json at all\npayload"),
	}
	for reason, raw := range cases {
		d := specDigest(reason)
		if err := os.MkdirAll(filepath.Dir(st.Path(d)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.Path(d), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := st.Get(d, telemetry.Span{})
		var ce *CorruptEntryError
		if !errors.As(err, &ce) || ce.Reason != reason {
			t.Errorf("Get(%s): err = %v, want reason %q", reason, err, reason)
		}
	}
}

func TestPutReplacesExistingEntry(t *testing.T) {
	st := &Store{Dir: t.TempDir()}
	d := specDigest("replace")
	ctx := context.Background()
	if err := st.Put(ctx, d, Meta{}, []byte("old"), telemetry.Span{}); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(ctx, d, Meta{}, []byte("new"), telemetry.Span{}); err != nil {
		t.Fatal(err)
	}
	got, _, err := st.Get(d, telemetry.Span{})
	if err != nil || string(got) != "new" {
		t.Fatalf("Get = %q, %v; want \"new\"", got, err)
	}
}

func TestFamilySkipsCorruptEntries(t *testing.T) {
	st := &Store{Dir: t.TempDir()}
	ctx := context.Background()
	fam := specDigest("family")
	for _, name := range []string{"a", "b"} {
		if err := st.Put(ctx, specDigest(name), Meta{Family: fam, Experiment: "recovery"}, []byte(name), telemetry.Span{}); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt one of the two, plus drop a .tmp stray that Family must skip.
	path := st.Path(specDigest("a"))
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".tmp123", []byte("stray"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := st.Family(fam)
	if err != nil {
		t.Fatalf("Family: %v", err)
	}
	if len(got) != 1 || got[0] != specDigest("b") {
		t.Fatalf("Family = %v, want just entry b", got)
	}
}

func TestAuditReportsCorruption(t *testing.T) {
	st := &Store{Dir: t.TempDir()}
	ctx := context.Background()
	good, bad := specDigest("good"), specDigest("bad")
	if err := st.Put(ctx, good, Meta{Experiment: "levels"}, []byte("fine"), telemetry.Span{}); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(ctx, bad, Meta{}, []byte("soon broken"), telemetry.Span{}); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(st.Path(bad))
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(st.Path(bad), data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := st.Audit()
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if rep.OK != 1 || rep.Corrupt != 1 || len(rep.Entries) != 2 {
		t.Fatalf("report = ok %d corrupt %d entries %d, want 1/1/2", rep.OK, rep.Corrupt, len(rep.Entries))
	}
	for _, e := range rep.Entries {
		switch e.SpecDigest {
		case good:
			if !e.OK || e.Experiment != "levels" {
				t.Errorf("good entry verdict: %+v", e)
			}
		case bad:
			if e.OK || e.Reason != "hash-mismatch" {
				t.Errorf("bad entry verdict: %+v", e)
			}
		default:
			t.Errorf("unexpected entry %s", e.SpecDigest)
		}
	}

	// An empty store audits clean.
	empty := &Store{Dir: t.TempDir()}
	rep, err = empty.Audit()
	if err != nil || rep.OK != 0 || rep.Corrupt != 0 {
		t.Fatalf("empty audit = %+v, %v", rep, err)
	}
}
