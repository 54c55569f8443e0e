package resultcache

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// FuzzVerifyEntry: verifyEntry never panics on arbitrary entry bytes read
// from an arbitrary slot. An accepted entry is bound to its slot and its
// payload is the hashed tail of the bytes; anything else is a
// *CorruptEntryError with one of the documented reasons.
func FuzzVerifyEntry(f *testing.F) {
	payload := []byte(`{"experiment":"recovery","points":[1,2,3]}`)
	slot := specDigest("a")
	header, err := json.Marshal(Meta{
		Format: Format, SpecDigest: slot, Experiment: "recovery",
		ContentHash: digestOf(payload), Size: int64(len(payload)),
		StoredAt: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC),
	})
	if err != nil {
		f.Fatal(err)
	}
	valid := append(append(header, '\n'), payload...)
	f.Add(valid, slot)
	f.Add(valid[:len(valid)/2], slot) // torn write, inside the header
	f.Add(valid[:len(valid)-3], slot) // torn write, inside the payload
	f.Add(valid, specDigest("b"))     // misfiled: slot does not match
	f.Add([]byte("{}\n"), "")

	reasons := map[string]bool{
		"hash-mismatch": true, "bad-header": true, "digest-mismatch": true,
		"bad-format": true, "truncated": true,
	}
	f.Fuzz(func(t *testing.T, data []byte, slot string) {
		meta, got, cerr := verifyEntry("entry", slot, data)
		if cerr != nil {
			if !reasons[cerr.Reason] {
				t.Fatalf("unknown reason %q", cerr.Reason)
			}
			if cerr.SpecDigest != slot {
				t.Fatalf("error names slot %q, read from %q", cerr.SpecDigest, slot)
			}
			return
		}
		if meta.Format != Format {
			t.Fatalf("accepted format %q", meta.Format)
		}
		if slot != "" && meta.SpecDigest != slot {
			t.Fatalf("accepted entry for %q from slot %q", meta.SpecDigest, slot)
		}
		if !bytes.HasSuffix(data, got) || meta.Size != int64(len(got)) || meta.ContentHash != digestOf(got) {
			t.Fatalf("accepted payload is not the hashed tail of the entry: meta %+v, %d payload bytes", meta, len(got))
		}
	})
}
