package sweep

import (
	"errors"
	"testing"

	"revft/internal/chaos"
)

// bytesFS serves one file's bytes to LoadFS without touching the disk.
type bytesFS struct {
	chaos.FS
	data []byte
}

func (b bytesFS) ReadFile(string) ([]byte, error) { return b.data, nil }

// FuzzLoadFS: LoadFS never panics on arbitrary checkpoint bytes, and
// whatever it accepts is consistent under some format version; everything
// else is a *CorruptError.
func FuzzLoadFS(f *testing.F) {
	checkpoint := func(digest, spec string) []byte {
		return []byte(`{"digest":"` + digest + `","spec":` + spec +
			`,"done":[{"index":0,"ests":[{"trials":40000,"successes":3}]}],"saved_at":"2026-01-02T03:04:05Z"}`)
	}
	current := checkpoint(goldenFullDigest, goldenFullJSON)
	f.Add(current)
	f.Add(checkpoint(goldenFullDigestV2, goldenFullJSONV2))
	f.Add(checkpoint(goldenFullDigestV1, goldenFullJSONV2))
	f.Add(current[:len(current)/2]) // torn write
	f.Add([]byte("{}"))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := LoadFS(bytesFS{chaos.OS, data}, "ck.json")
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("error %T %v, want *CorruptError", err, err)
			}
			return
		}
		if c.formatOf() == 0 {
			t.Fatalf("accepted checkpoint with digest %s matches its spec under no format version", c.Digest)
		}
	})
}
