package rng

import (
	"math"
	"sort"
	"testing"
)

// TestExpFloat64Reference pins ExpFloat64's output sequence at a fixed
// seed: the lane engine draws every geometric fault gap from it, so its
// bytes are part of the randomness contract, as SplitMix's are. The first
// draws are pinned exactly; a rolling hash pins the first 100000, which
// cross the wedge and tail paths too.
func TestExpFloat64Reference(t *testing.T) {
	want := []uint64{
		4610182562563978038, 4599450475074049059, 4611467368769359425, 4609008976982565171,
		4598027779719246734, 4595462453916953667, 4600104652391137696, 4586172874171046955,
	}
	r := New(2005)
	for i, w := range want {
		if got := math.Float64bits(r.ExpFloat64()); got != w {
			t.Fatalf("draw %d = %v, want %v", i, math.Float64frombits(got), math.Float64frombits(w))
		}
	}
	// The first draw is the fast path in full: layer from the low 8 bits,
	// position from the high 53 bits of one Uint64.
	u := New(2005).Uint64()
	if x := float64(u>>11) * zigW[u&0xff]; math.Float64bits(x) != want[0] {
		t.Fatalf("first draw %v is not the ziggurat fast path %v", math.Float64frombits(want[0]), x)
	}
	r = New(2005)
	var h uint64
	for i := 0; i < 100000; i++ {
		h = h*31 + math.Float64bits(r.ExpFloat64())
	}
	if h != 0x95ec3d894fa3381e {
		t.Fatalf("hash of the first 100000 draws = %#x, want 0x95ec3d894fa3381e", h)
	}
}

// TestExpFloat64Tables checks the ziggurat tables the init builds: every
// layer has area zigV, so the top layer's upper edge lands at e^0 = 1,
// and the outright-accept thresholds are proper fractions of the layer.
func TestExpFloat64Tables(t *testing.T) {
	x1 := zigW[1] * zigM
	if top := math.Exp(-x1) + zigV/x1; math.Abs(top-1) > 1e-12 {
		t.Fatalf("top layer's upper edge at e^-x = %v, want 1", top)
	}
	if zigK[1] != 0 {
		t.Fatalf("top layer accepts %d positions outright, want 0", zigK[1])
	}
	for i := 2; i < 256; i++ {
		if zigK[i] == 0 || zigK[i] >= zigM || zigF[i] >= zigF[i-1] {
			t.Fatalf("layer %d: K = %d, F = %v after %v", i, zigK[i], zigF[i], zigF[i-1])
		}
	}
}

// TestExpFloat64KS is a one-sample Kolmogorov–Smirnov test of 2·10^6
// draws against Exp(1). √n·D exceeds 1.95 under the null with
// probability 0.001, the false-alarm rate; the seed is fixed, so the
// verdict is deterministic and a failure is a defect, not bad luck. The
// tail past zigR, which carries too little mass for KS to see, gets its
// own check: its count is Binomial(n, e^-zigR) and its excess over zigR
// is Exp(1), both within 4σ (false alarm ≈ 6e-5 each).
func TestExpFloat64KS(t *testing.T) {
	if testing.Short() {
		t.Skip("2e6 draws and a sort")
	}
	const n = 2000000
	r := New(17)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.ExpFloat64()
		if xs[i] < 0 || math.IsInf(xs[i], 0) || math.IsNaN(xs[i]) {
			t.Fatalf("draw %d = %v", i, xs[i])
		}
	}
	sort.Float64s(xs)
	d := 0.0
	tail, excess := 0, 0.0
	for i, x := range xs {
		c := -math.Expm1(-x)
		d = math.Max(d, math.Max(float64(i+1)/n-c, c-float64(i)/n))
		if x > zigR {
			tail++
			excess += x - zigR
		}
	}
	ks := math.Sqrt(n) * d
	t.Logf("KS √n·D = %.3f; %d draws past zigR", ks, tail)
	if ks > 1.95 {
		t.Errorf("KS √n·D = %.3f over %d draws, above the 0.001 critical value 1.95", ks, n)
	}
	pt := math.Exp(-zigR)
	if mean, sd := n*pt, math.Sqrt(n*pt*(1-pt)); math.Abs(float64(tail)-mean) > 4*sd {
		t.Errorf("%d draws past zigR, want %.0f ± %.0f", tail, mean, 4*sd)
	}
	if m := excess / float64(tail); math.Abs(m-1) > 4/math.Sqrt(float64(tail)) {
		t.Errorf("mean excess past zigR = %.3f over %d draws, want 1", m, tail)
	}
}

func BenchmarkExpFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.ExpFloat64()
	}
	_ = sink
}
