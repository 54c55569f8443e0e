package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The spec digest is a stable on-disk contract: it keys checkpoints, job
// directories, and the content-addressed result cache. These golden
// tests pin the canonical JSON encoding (field order, float formatting,
// omitempty behavior) and the digest derived from it, so an accidental
// struct-tag or field-order change fails loudly here instead of silently
// invalidating every existing checkpoint and cache entry in the field.
//
// If one of these golden values ever changes on purpose, that is a
// cache- and checkpoint-breaking format migration and must be treated as
// such — bump FormatVersion, not just a constant here. The legacy
// digests are kept to prove that no current digest can collide with an
// entry written before the last migrations: format 1 is the bare SHA-256
// of the old canonical JSON, which still held workers, format 2 the same
// behind a "v2" line, and formats 3 to 5 today's canonical JSON behind
// a "v3", a "v4" and a "v5" line.

// goldenPrefix is what FormatVersion 6 hashes ahead of the canonical JSON.
const goldenPrefix = "revft spec v6\n"

const (
	goldenFullJSON     = `{"experiment":"recovery","grid":[0.001,0.0031622776601683794,0.01],"points":3,"trials":40000,"seed":12345,"engine":"lanes","extra":"maxlevel=2 bits=3","stop":{"reltol":0.05,"min_trials":1000,"max_trials":40000}}`
	goldenFullDigest   = "ebb90c0f3020b48bed17eb53bfd82435c78e0e58a8b2186ddb8dc8f2df0056cd"
	goldenFullDigestV5 = "b7a5fc0a4096fe823c585b1b9a80fb450828cc9c55e83568ef72f2732d17636c"
	goldenFullDigestV4 = "b740c78a1ce8a59dbda41ef485795f4ef4feebdcbb163f7afe0f8004a3e6e36e"
	goldenFullDigestV3 = "d5c31d3a3cba82f798b62ec82bca6e2aebf77e200fac68989e35f138ad76d353"
	goldenFullJSONV2   = `{"experiment":"recovery","grid":[0.001,0.0031622776601683794,0.01],"points":3,"trials":40000,"workers":4,"seed":12345,"engine":"lanes","extra":"maxlevel=2 bits=3","stop":{"reltol":0.05,"min_trials":1000,"max_trials":40000}}`
	goldenFullDigestV2 = "cf6dc2d5a3cf7a78f2bc199a525252c6305f01cb35e9c731bb0be7a33675461b"
	goldenFullDigestV1 = "331545346ecdd049c904e84290b98987db2a3639aee305e57db929c302fdaec0"

	goldenZeroScaleJSON     = `{"experiment":"recovery","grid":[0.001,0.0031622776601683794,0.01],"points":3,"trials":40000,"seed":12345,"engine":"lanes","extra":"maxlevel=2 bits=3","stop":{"reltol":0.05,"min_trials":1000,"max_trials":40000,"zero_scale":2.5e-7}}`
	goldenZeroScaleDigest   = "40f82f31a2c81767e03899b6336a182de18ad3642ce9a49afff13f377e4d9dd1"
	goldenZeroScaleDigestV5 = "a58931ffa2dbaf8ed4b39bccf8bb91b983bf49456060699aad6d1ca4000746ca"
	goldenZeroScaleDigestV4 = "d8150ebc40cae908a022f4758b37e3b63d700a3510bc697babe479d00ab0b01a"
	goldenZeroScaleDigestV3 = "3f85d66ba4cdb3bdabe0fcc268ae76e69a9076b97f287614410eb7a24f4ee21a"
	goldenZeroScaleJSONV2   = `{"experiment":"recovery","grid":[0.001,0.0031622776601683794,0.01],"points":3,"trials":40000,"workers":4,"seed":12345,"engine":"lanes","extra":"maxlevel=2 bits=3","stop":{"reltol":0.05,"min_trials":1000,"max_trials":40000,"zero_scale":2.5e-7}}`
	goldenZeroScaleDigestV2 = "eb3cc3c5e8b76cd6ab0aae7d1e23006a461601e7587307e0e36631d46a479bb0"
	goldenZeroScaleDigestV1 = "60075829486e628466a580a5f3fd2a78e4bc361597ff612ddb8f961cc174ab13"

	goldenMinimalJSON     = `{"experiment":"levels","points":8,"trials":100,"seed":1,"engine":"scalar","stop":{"reltol":0,"min_trials":0,"max_trials":0}}`
	goldenMinimalDigest   = "4b2de4116e8e6c84290262b43a96f4cdf1ded825765ea7be0a705d38fa8b9c3a"
	goldenMinimalDigestV5 = "18b53130e94006e06cc3339588e1446983cf273c19145027687e7b92b99d9df2"
	goldenMinimalDigestV4 = "fa0dec4b358386477b25d8deb977326f603cbf256e0f6657cef7c7a6f937b0a8"
	goldenMinimalDigestV3 = "6c1a80298820e99f1a236ebb661840e0872074413f955a3ea1f857d782ad7b5a"
	goldenMinimalJSONV2   = `{"experiment":"levels","points":8,"trials":100,"workers":1,"seed":1,"engine":"scalar","stop":{"reltol":0,"min_trials":0,"max_trials":0}}`
	goldenMinimalDigestV2 = "577643248f187c3d36f4d5788ad2fbfadd6d57050109a412947ac4d7b70a9965"
	goldenMinimalDigestV1 = "a6357f3c2b9abfd3d5ea6d8383bdcc6c0e29dfab10031ee63181b90f41c106bf"
)

func goldenFullSpec() Spec {
	return Spec{
		Experiment: "recovery",
		// 1e-3 must encode as 0.001 and the midpoint keep all 17
		// significant digits — shortest round-trip float formatting.
		Grid:    []float64{1e-3, 0.0031622776601683794, 0.01},
		Points:  3,
		Trials:  40000,
		Workers: 4,
		Seed:    12345,
		Engine:  "lanes",
		Extra:   "maxlevel=2 bits=3",
		Stop:    StopRule{RelTol: 0.05, MinTrials: 1000, MaxTrials: 40000},
	}
}

func TestSpecDigestGolden(t *testing.T) {
	if FormatVersion != 6 {
		t.Fatalf("FormatVersion = %d: re-pin the golden digests for the new format", FormatVersion)
	}
	cases := []struct {
		name                           string
		spec                           Spec
		wantJSON, jsonV2               string
		wantDigest, v5, v4, v3, v2, v1 string
	}{
		{"full", goldenFullSpec(), goldenFullJSON, goldenFullJSONV2,
			goldenFullDigest, goldenFullDigestV5, goldenFullDigestV4, goldenFullDigestV3, goldenFullDigestV2, goldenFullDigestV1},
		{"zeroscale", func() Spec {
			s := goldenFullSpec()
			s.Stop.ZeroScale = 2.5e-7
			return s
		}(), goldenZeroScaleJSON, goldenZeroScaleJSONV2,
			goldenZeroScaleDigest, goldenZeroScaleDigestV5, goldenZeroScaleDigestV4, goldenZeroScaleDigestV3, goldenZeroScaleDigestV2, goldenZeroScaleDigestV1},
		{"minimal", Spec{Experiment: "levels", Points: 8, Trials: 100, Workers: 1, Seed: 1, Engine: "scalar"},
			goldenMinimalJSON, goldenMinimalJSONV2,
			goldenMinimalDigest, goldenMinimalDigestV5, goldenMinimalDigestV4, goldenMinimalDigestV3, goldenMinimalDigestV2, goldenMinimalDigestV1},
	}
	hash := func(prefix, body string) string {
		sum := sha256.Sum256([]byte(prefix + body))
		return hex.EncodeToString(sum[:])
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if b := tc.spec.canonical(); string(b) != tc.wantJSON {
				t.Errorf("canonical JSON changed — this invalidates every existing checkpoint and cache key\n got: %s\nwant: %s", b, tc.wantJSON)
			}
			got := tc.spec.Digest()
			if got != tc.wantDigest {
				t.Errorf("digest changed: got %s want %s", got, tc.wantDigest)
			}
			// The digest must be exactly SHA-256(format prefix ‖ canonical
			// JSON). Formats 1 and 2 hashed the old canonical JSON, which
			// still held workers: alone, then behind a "v2" line; formats 3
			// to 5 hashed today's JSON behind a "v3", a "v4" and a "v5"
			// line. The current digest must equal none of them.
			if want := hash(goldenPrefix, tc.wantJSON); tc.wantDigest != want {
				t.Errorf("golden digest is not SHA-256 of prefix+golden JSON: %s vs %s", tc.wantDigest, want)
			}
			if b := marshalSpec(legacySpec(tc.spec)); string(b) != tc.jsonV2 {
				t.Errorf("format-2 canonical JSON = %s, want %s", b, tc.jsonV2)
			}
			for _, old := range []struct {
				v            int
				prefix, body string
				canonical    []byte
				want         string
			}{
				{1, "", tc.jsonV2, marshalSpec(legacySpec(tc.spec)), tc.v1},
				{2, "revft spec v2\n", tc.jsonV2, marshalSpec(legacySpec(tc.spec)), tc.v2},
				{3, "revft spec v3\n", tc.wantJSON, tc.spec.canonical(), tc.v3},
				{4, "revft spec v4\n", tc.wantJSON, tc.spec.canonical(), tc.v4},
				{5, "revft spec v5\n", tc.wantJSON, tc.spec.canonical(), tc.v5},
			} {
				v, want := old.v, old.want
				if want != hash(old.prefix, old.body) {
					t.Errorf("format-%d golden is not SHA-256 of its prefix and JSON", v)
				}
				if d := digestAt(v, old.canonical); d != want {
					t.Errorf("format-%d digest = %s, want pinned %s", v, d, want)
				}
				if got == want {
					t.Errorf("digest %s equals the format-%d digest: pre-migration entries would be served", got, v)
				}
			}
		})
	}
}

// TestSpecDigestZeroScaleOmitted pins the omitempty interaction: a zero
// ZeroScale encodes to the same bytes (and digest) as a spec that
// predates the field, while any nonzero value changes the digest.
func TestSpecDigestZeroScaleOmitted(t *testing.T) {
	s := goldenFullSpec()
	if s.Stop.ZeroScale != 0 {
		t.Fatal("precondition: golden spec has ZeroScale 0")
	}
	if got := s.Digest(); got != goldenFullDigest {
		t.Fatalf("zero ZeroScale digest = %s, want the pre-field golden %s", got, goldenFullDigest)
	}
	s.Stop.ZeroScale = 2.5e-7
	if got := s.Digest(); got == goldenFullDigest {
		t.Fatal("nonzero ZeroScale must change the digest")
	}
}

// TestSpecDigestSensitivity checks the digest moves when any field that
// decides the result bytes does — a cache keyed on it must never serve
// one spec's result for another — and stays put when only the worker
// count, which decides nothing but speed, changes.
func TestSpecDigestSensitivity(t *testing.T) {
	base := goldenFullSpec()
	for _, w := range []int{0, 1, 8} {
		s := goldenFullSpec()
		s.Workers = w
		if s.Digest() != base.Digest() {
			t.Errorf("workers=%d changed the digest", w)
		}
	}
	mutate := map[string]func(*Spec){
		"experiment": func(s *Spec) { s.Experiment = "levels" },
		"grid":       func(s *Spec) { s.Grid[1] *= 1.0000000001 },
		"points":     func(s *Spec) { s.Points++ },
		"trials":     func(s *Spec) { s.Trials++ },
		"seed":       func(s *Spec) { s.Seed++ },
		"engine":     func(s *Spec) { s.Engine = "scalar" },
		"extra":      func(s *Spec) { s.Extra = "maxlevel=1 bits=3" },
		"reltol":     func(s *Spec) { s.Stop.RelTol = 0.01 },
		"zero_scale": func(s *Spec) { s.Stop.ZeroScale = 1e-9 },
	}
	for name, mut := range mutate {
		s := goldenFullSpec()
		mut(&s)
		if s.Digest() == base.Digest() {
			t.Errorf("mutating %s did not change the digest", name)
		}
	}
}

// TestCorruptErrorFullLengthDigests pins that LoadFS populates
// CorruptError.SpecDigest and RecordedDigest with the full 64-char hex
// digests — the cache and server compare these fields programmatically;
// only the Error() string truncates for display.
func TestCorruptErrorFullLengthDigests(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	ck := &Checkpoint{
		Digest: "0000000000000000000000000000000000000000000000000000000000000000",
		Spec:   goldenFullSpec(),
	}
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	_, err := Load(path)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Load = %v, want *CorruptError", err)
	}
	if len(ce.SpecDigest) != 64 || len(ce.RecordedDigest) != 64 {
		t.Fatalf("digest fields must be full-length: spec %d chars, recorded %d chars", len(ce.SpecDigest), len(ce.RecordedDigest))
	}
	if ce.SpecDigest != goldenFullDigest {
		t.Errorf("SpecDigest = %s, want %s", ce.SpecDigest, goldenFullDigest)
	}
	if ce.RecordedDigest != ck.Digest {
		t.Errorf("RecordedDigest = %s, want %s", ce.RecordedDigest, ck.Digest)
	}
	// The display string truncates; the fields do not.
	if msg := ce.Error(); len(msg) == 0 {
		t.Error("empty Error string")
	}
}

// TestResumeFormatV1CheckpointIsSpecMismatch: a checkpoint written before
// the format-2 migration records the bare SHA-256 of its spec. It is
// stale, not corrupt — it loads — and resuming it is refused as a spec
// mismatch, so its points are never mixed into a format-2 run.
func TestResumeFormatV1CheckpointIsSpecMismatch(t *testing.T) {
	spec := testSpec(3)
	spec.Engine = "lanes"
	ck := filepath.Join(t.TempDir(), "ck.json")
	if _, err := (&Runner{Spec: spec, Point: fakePoint(42), CheckpointPath: ck}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	c, err := Load(ck)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	c.Digest = hex.EncodeToString(sum[:])
	if err := c.Save(ck); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(ck); err != nil {
		t.Fatalf("format-1 checkpoint failed to load: %v", err)
	}

	_, err = (&Runner{Spec: spec, Point: fakePoint(42), CheckpointPath: ck, Resume: true}).Run(context.Background())
	var dm *DigestMismatchError
	if !errors.As(err, &dm) {
		t.Fatalf("resume of a format-1 checkpoint: err = %T %v, want *DigestMismatchError", err, err)
	}
	if dm.CheckpointDigest != c.Digest || dm.SpecDigest != spec.Digest() {
		t.Errorf("mismatch fields wrong: %+v", dm)
	}

	// The format-1 digest of a different spec is still corruption.
	other := spec
	other.Seed++
	c.Spec = other
	if err := c.Save(ck); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, err := Load(ck); !errors.As(err, &ce) {
		t.Fatalf("format-1 digest of another spec: err = %T %v, want *CorruptError", err, err)
	}
}

// TestResumeFormatV2CheckpointIsSpecMismatch: a checkpoint written under
// format 2 — here the pinned golden spec and digest, as a format-2
// writer stored them — is stale, not corrupt: it loads, and resuming it
// is refused as a spec mismatch, so points whose streams depended on the
// worker count are never mixed into a current run. Its format-2 digest
// paired with another spec is still corruption.
func TestResumeFormatV2CheckpointIsSpecMismatch(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")
	fixture := `{"digest":"` + goldenFullDigestV2 + `","spec":` + goldenFullJSONV2 +
		`,"done":[{"index":0,"ests":[{"trials":40000,"successes":3}]}],"saved_at":"2026-01-02T03:04:05Z"}`
	if err := os.WriteFile(ck, []byte(fixture), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Load(ck)
	if err != nil {
		t.Fatalf("format-2 checkpoint failed to load: %v", err)
	}
	if v := c.formatOf(); v != 2 {
		t.Errorf("format-2 checkpoint detected as format %d", v)
	}
	spec := goldenFullSpec()
	_, err = (&Runner{Spec: spec, Point: fakePoint(42), CheckpointPath: ck, Resume: true}).Run(context.Background())
	var dm *DigestMismatchError
	if !errors.As(err, &dm) {
		t.Fatalf("resume of a format-2 checkpoint: err = %T %v, want *DigestMismatchError", err, err)
	}
	if dm.CheckpointDigest != goldenFullDigestV2 || dm.SpecDigest != goldenFullDigest {
		t.Errorf("mismatch fields wrong: %+v", dm)
	}
	if strings.Contains(dm.Error(), "workers") {
		t.Errorf("mismatch message names workers, which no longer decide the digest: %s", dm)
	}

	c.Spec.Seed++
	if err := c.Save(ck); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, err := Load(ck); !errors.As(err, &ce) {
		t.Fatalf("format-2 digest of another spec: err = %T %v, want *CorruptError", err, err)
	}
}

// TestResumeFormatV3CheckpointIsSpecMismatch: a checkpoint written under
// format 3, 4 or 5 — the pinned golden spec behind its "v3", "v4" or
// "v5" digest, as that writer stored it — holds lane-engine points drawn
// with the old logarithmic fault sampler, compiled with fused ops, or
// compacted from the geometric producer's draw of every lane. It is stale, not
// corrupt: it loads, is detected as its format, and resuming it is
// refused as a spec mismatch. Its old digest paired with another spec is
// still corruption.
func TestResumeFormatV3CheckpointIsSpecMismatch(t *testing.T) {
	for v, digest := range map[int]string{3: goldenFullDigestV3, 4: goldenFullDigestV4, 5: goldenFullDigestV5} {
		ck := filepath.Join(t.TempDir(), "ck.json")
		fixture := `{"digest":"` + digest + `","spec":` + goldenFullJSON +
			`,"done":[{"index":0,"ests":[{"trials":40000,"successes":3}]}],"saved_at":"2026-01-02T03:04:05Z"}`
		if err := os.WriteFile(ck, []byte(fixture), 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Load(ck)
		if err != nil {
			t.Fatalf("format-%d checkpoint failed to load: %v", v, err)
		}
		if got := c.formatOf(); got != v {
			t.Errorf("format-%d checkpoint detected as format %d", v, got)
		}
		spec := goldenFullSpec()
		_, err = (&Runner{Spec: spec, Point: fakePoint(42), CheckpointPath: ck, Resume: true}).Run(context.Background())
		var dm *DigestMismatchError
		if !errors.As(err, &dm) {
			t.Fatalf("resume of a format-%d checkpoint: err = %T %v, want *DigestMismatchError", v, err, err)
		}
		if dm.CheckpointDigest != digest || dm.SpecDigest != goldenFullDigest {
			t.Errorf("format %d: mismatch fields wrong: %+v", v, dm)
		}

		c.Spec.Seed++
		if err := c.Save(ck); err != nil {
			t.Fatal(err)
		}
		var ce *CorruptError
		if _, err := Load(ck); !errors.As(err, &ce) {
			t.Fatalf("format-%d digest of another spec: err = %T %v, want *CorruptError", v, err, err)
		}
	}
}
