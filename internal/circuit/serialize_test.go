package circuit

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"revft/internal/gate"
)

func TestMarshalParseRoundTrip(t *testing.T) {
	c := New(9).
		Init3(3, 4, 5).
		MAJInv(0, 3, 6).
		MAJ(0, 1, 2).
		Swap3(2, 3, 4).
		Append(gate.SWAP3Inv, 4, 5, 6).
		CNOT(7, 8).
		NOT(0).
		Swap(1, 2).
		Toffoli(0, 1, 8).
		Fredkin(2, 3, 4)
	parsed, err := Parse(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Width() != c.Width() || parsed.Len() != c.Len() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", parsed.Width(), parsed.Len(), c.Width(), c.Len())
	}
	for i := 0; i < c.Len(); i++ {
		if c.Op(i).String() != parsed.Op(i).String() {
			t.Fatalf("op %d: %s vs %s", i, c.Op(i), parsed.Op(i))
		}
	}
}

func TestParseASCIIAliases(t *testing.T) {
	c, err := Parse("width 3\nMAJ-1(0,1,2)\nSWAP3-1(0,1,2)\n")
	if err != nil {
		t.Fatal(err)
	}
	if c.Op(0).Kind != gate.MAJInv || c.Op(1).Kind != gate.SWAP3Inv {
		t.Fatalf("aliases parsed as %s, %s", c.Op(0).Kind, c.Op(1).Kind)
	}
}

func TestParseCommentsAndBlanks(t *testing.T) {
	src := `
# a comment
width 3

# encode
MAJ(0, 1, 2)
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string]string{
		"empty":         "",
		"no header":     "MAJ(0,1,2)",
		"neg width":     "width -1",
		"unknown gate":  "width 3\nFOO(0,1,2)",
		"malformed":     "width 3\nMAJ 0 1 2",
		"bad target":    "width 3\nMAJ(0,x,2)",
		"out of range":  "width 3\nMAJ(0,1,3)",
		"arity":         "width 3\nMAJ(0,1)",
		"duplicate":     "width 3\nMAJ(0,1,1)",
		"junk trailing": "width 3\nMAJ(0,1,2",
	}
	for name, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

// Property: marshal/parse round-trips random circuits with identical
// semantics.
func TestPropSerializeRoundTrip(t *testing.T) {
	kinds := []gate.Kind{gate.NOT, gate.CNOT, gate.SWAP, gate.Toffoli,
		gate.Fredkin, gate.MAJ, gate.MAJInv, gate.SWAP3, gate.SWAP3Inv, gate.Init3}
	f := func(opsRaw []uint16) bool {
		const w = 6
		c := New(w)
		for _, r := range opsRaw {
			k := kinds[int(r)%len(kinds)]
			t0 := int(r>>4) % w
			t1 := (t0 + 1 + int(r>>7)%(w-1)) % w
			t2 := t1
			for t2 == t0 || t2 == t1 {
				t2 = (t2 + 1) % w
			}
			switch k.Arity() {
			case 1:
				c.Append(k, t0)
			case 2:
				c.Append(k, t0, t1)
			case 3:
				c.Append(k, t0, t1, t2)
			}
		}
		parsed, err := Parse(c.Marshal())
		if err != nil {
			return false
		}
		for in := uint64(0); in < 64; in += 7 {
			if parsed.Eval(in%64) != c.Eval(in%64) {
				return false
			}
		}
		return parsed.Len() == c.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalHeader(t *testing.T) {
	s := New(4).Marshal()
	if !strings.HasPrefix(s, "width 4\n") {
		t.Fatalf("marshal = %q", s)
	}
}

func TestGateFromName(t *testing.T) {
	for _, k := range gate.Kinds() {
		got, ok := gate.FromName(k.String())
		if !ok || got != k {
			t.Errorf("FromName(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := gate.FromName("NOPE"); ok {
		t.Error("unknown name accepted")
	}
}

func TestAppendCheckedConvertsValidationErrors(t *testing.T) {
	c := New(2)
	for name, args := range map[string]struct {
		kind    gate.Kind
		targets []int
	}{
		"arity":     {gate.CNOT, []int{0}},
		"range":     {gate.NOT, []int{2}},
		"duplicate": {gate.CNOT, []int{1, 1}},
	} {
		err := appendChecked(c, args.kind, args.targets)
		if err == nil {
			t.Errorf("%s violation returned nil error", name)
			continue
		}
		var ve *ValidationError
		if !errors.As(err, &ve) {
			t.Errorf("%s violation returned %T, want *ValidationError", name, err)
		}
	}
	if c.Len() != 0 {
		t.Fatal("failed appends left ops behind")
	}
}

// TestAppendCheckedPassesThroughForeignPanics: a panic that is not one of
// Append's validation errors must escape appendChecked unchanged — turning
// a bug into a "parse error" would hide it. gate.Kind(99).Arity() panics
// with a plain string inside Append, exercising the real code path.
func TestAppendCheckedPassesThroughForeignPanics(t *testing.T) {
	c := New(2)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("foreign panic was swallowed by appendChecked")
		}
		s, ok := r.(string)
		if !ok || !strings.Contains(s, "invalid kind") {
			t.Fatalf("recovered %v (%T), want the gate package's invalid-kind panic", r, r)
		}
	}()
	_ = appendChecked(c, gate.Kind(99), []int{0})
}

// FuzzParse: Parse never panics on arbitrary text, and a circuit it
// accepts marshals to text that parses back and re-marshals identically.
func FuzzParse(f *testing.F) {
	f.Add(New(9).Init3(3, 4, 5).MAJInv(0, 3, 6).Swap3(2, 3, 4).CNOT(7, 8).Toffoli(0, 1, 8).Marshal())
	f.Add("width 3\nMAJ-1(0,1,2)\nSWAP3-1( 0, 1 ,2 )\n")
	f.Add("# comment\n\nwidth 2\nSWAP(0,1)")
	f.Add("width 2\nCNOT(0,0)\n")
	f.Add("width -1\n")
	f.Add("")

	f.Fuzz(func(t *testing.T, s string) {
		c, err := Parse(s)
		if err != nil {
			return
		}
		text := c.Marshal()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("marshalled circuit %q is refused: %v", text, err)
		}
		if got := again.Marshal(); got != text {
			t.Fatalf("re-marshal differs:\n%q\nvs\n%q", got, text)
		}
	})
}
