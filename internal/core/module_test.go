package core

import (
	"testing"

	"revft/internal/adder"
	"revft/internal/bitvec"
	"revft/internal/circuit"
	"revft/internal/code"
	"revft/internal/noise"
	"revft/internal/rng"
)

func buildTestLogical() *circuit.Circuit {
	// A small mixed-gate circuit on 4 wires.
	return circuit.New(4).
		NOT(0).
		CNOT(0, 1).
		MAJ(1, 2, 3).
		Toffoli(0, 1, 2).
		Swap3(1, 2, 3)
}

func TestCompileModuleNoiselessSemantics(t *testing.T) {
	logical := buildTestLogical()
	for level := 0; level <= 2; level++ {
		wrong := CompileModule(logical, level).Target().Injected()
		for in := uint64(0); in < 16; in++ {
			if wrong(in, nil, nil) {
				t.Fatalf("level %d input %04b: module output differs from the logical circuit's %04b", level, in, logical.Eval(in))
			}
		}
	}
}

// runModule encodes the packed logical input in onto a fresh physical
// state, runs the module noiselessly and decodes its packed logical
// output.
func runModule(m *Module, in uint64) uint64 {
	st := bitvec.New(m.Physical.Width())
	for i, wires := range m.In {
		code.EncodeInto(st, wires, in>>uint(i)&1 == 1, m.Level)
	}
	m.Physical.Run(st)
	var out uint64
	for i, wires := range m.Out {
		if code.Decode(st, wires, m.Level) {
			out |= 1 << uint(i)
		}
	}
	return out
}

func TestCompileModuleGateBlowup(t *testing.T) {
	logical := buildTestLogical()
	for level := 0; level <= 2; level++ {
		m := CompileModule(logical, level)
		want := 0
		for _, op := range logical.Ops() {
			want += GateCost(op.Kind.Arity(), level)
		}
		if got := m.Physical.GateCount(); got != want {
			t.Fatalf("level %d: %d physical ops, want Σ per-gate cost = %d", level, got, want)
		}
		if got, want := m.Physical.Width(), logical.Width()*SizeBlowup(level); got != want {
			t.Fatalf("level %d: width %d, want %d", level, got, want)
		}
	}
}

func TestGateCostMatchesGamma(t *testing.T) {
	// For 3-bit gates GateCost reduces to Γ_L = 27^L; lower arity is
	// strictly cheaper.
	for level := 0; level <= 3; level++ {
		if got, want := GateCost(3, level), GateBlowup(level); got != want {
			t.Fatalf("GateCost(3,%d) = %d, want Γ = %d", level, got, want)
		}
	}
	if GateCost(1, 1) != 11 || GateCost(2, 1) != 19 {
		t.Fatalf("arity costs at level 1 = %d, %d; want 11, 19",
			GateCost(1, 1), GateCost(2, 1))
	}
	if !(GateCost(1, 2) < GateCost(2, 2) && GateCost(2, 2) < GateCost(3, 2)) {
		t.Fatal("per-arity costs not monotone")
	}
}

func TestCompileModuleLevel0IsIdentityCompilation(t *testing.T) {
	logical := buildTestLogical()
	m := CompileModule(logical, 0)
	if !m.Physical.EquivalentTo(logical) {
		t.Fatal("level-0 compilation changed semantics")
	}
	if m.Physical.GateCount() != logical.GateCount() {
		t.Fatal("level-0 compilation changed gate count")
	}
}

// TestFTAdderModule: the flagship integration — the Cuccaro adder compiled
// to level 1 still adds correctly (noiselessly), exercising 2-bit and 3-bit
// logical gates through the concatenation machinery.
func TestFTAdderModule(t *testing.T) {
	ac, l := adder.New(2)
	m := CompileModule(ac, 1)
	wrong := m.Target().Injected()
	for a := uint64(0); a < 4; a++ {
		for b := uint64(0); b < 4; b++ {
			var in uint64
			for i := 0; i < 2; i++ {
				in |= (a >> uint(i) & 1) << uint(l.A[i])
				in |= (b >> uint(i) & 1) << uint(l.B[i])
			}
			if wrong(in, nil, nil) {
				t.Fatalf("FT adder: %d+%d differs from the logical adder", a, b)
			}
			out := runModule(m, in)
			var sum uint64
			for i := 0; i < 2; i++ {
				sum |= (out >> uint(l.B[i]) & 1) << uint(i)
			}
			sum |= (out >> uint(l.Cout) & 1) << 2
			if sum != a+b {
				t.Fatalf("FT adder: %d+%d = %d", a, b, sum)
			}
		}
	}
}

// TestModuleBeatsUnprotected: at an error rate below threshold, the FT
// module at level 1 outperforms the bare circuit, whose failure rate tracks
// 1−(1−g)^T.
func TestModuleBeatsUnprotected(t *testing.T) {
	// ~41-gate module: large enough that the bare circuit fails visibly.
	logical := circuit.New(3)
	for i := 0; i < 41; i++ {
		logical.MAJ(i%3, (i+1)%3, (i+2)%3)
	}
	const g = 1e-3
	run := Noisy(noise.Uniform(g))
	bare := scalarRate(t, Plain("unprotected", logical), Fixed(0b101), run, 40000, 21)
	ft := scalarRate(t, CompileModule(logical, 1).Target(), Fixed(0b101), run, 40000, 22)

	loBare, _ := bare.Wilson(1.96)
	_, hiFT := ft.Wilson(1.96)
	if hiFT >= loBare {
		t.Fatalf("FT module (%v) not better than bare circuit (%v) at g=%v", ft, bare, g)
	}
}

func TestPlainTrialNoiseless(t *testing.T) {
	bare := Plain("unprotected", buildTestLogical())
	r := rng.New(1)
	for in := uint64(0); in < 16; in++ {
		if bare.Trial(Fixed(in), Noisy(noise.Noiseless))(r) {
			t.Fatal("noiseless unprotected trial failed")
		}
	}
}

func TestModuleTrialNoiseless(t *testing.T) {
	m := CompileModule(buildTestLogical(), 1).Target()
	r := rng.New(2)
	for in := uint64(0); in < 16; in++ {
		if m.Trial(Fixed(in), Noisy(noise.Noiseless))(r) {
			t.Fatal("noiseless module trial failed")
		}
	}
}

func TestModuleWithInit3InLogicalCircuit(t *testing.T) {
	// Logical circuits containing initialization compile and run.
	logical := circuit.New(3).NOT(0).NOT(1).Init3(0, 1, 2).NOT(2)
	if CompileModule(logical, 1).Target().Injected()(0, nil, nil) {
		t.Fatalf("module with Init3: output differs from the logical circuit's %03b", logical.Eval(0))
	}
}

func BenchmarkCompileAdderLevel1(b *testing.B) {
	ac, _ := adder.New(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CompileModule(ac, 1)
	}
}

func BenchmarkModuleTrialAdderLevel1(b *testing.B) {
	ac, _ := adder.New(4)
	m := CompileModule(ac, 1).Target()
	trial := m.Trial(Fixed(0), Noisy(noise.Uniform(1e-3)))
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trial(r)
	}
}
