package server

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDecodeSpec: decodeSpec never panics on arbitrary bytes, and a spec
// it accepts re-encodes and decodes to the same digest.
func FuzzDecodeSpec(f *testing.F) {
	good, err := json.Marshal(testSpec())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(append(append([]byte{}, good...), good...)) // trailing spec
	f.Add(append(append([]byte{}, good...), " \n"...))
	f.Add([]byte(`{"experiment":"fake","bogus":1}`))
	f.Add([]byte(`{"experiment":"fake"}]`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not re-encode: %v", err)
		}
		again, err := decodeSpec(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("re-encoded spec %s is refused: %v", b, err)
		}
		if again.Digest() != spec.Digest() {
			t.Fatalf("digest moved across re-encoding: %s -> %s", spec.Digest(), again.Digest())
		}
	})
}
