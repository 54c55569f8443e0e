package rng

import (
	"fmt"
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

// TestExpFloat64SlowPaths pins ExpFloat64's draws off the accepted-
// outright path at a fixed seed: the first draws from the base strip's
// tail (layer 0 past zigR), from a wedge that the curve test accepts, and
// from a wedge that it rejects (the draw that follows the retry), each
// with its position in the sequence. It classifies each draw by the
// Uint64 it starts from, on a copy of the generator.
func TestExpFloat64SlowPaths(t *testing.T) {
	type draw struct {
		n    int
		bits uint64
	}
	var tail, accept, reject []draw
	r := New(2026)
	for n := 0; len(tail) < 4 || len(accept) < 4 || len(reject) < 4; n++ {
		peek := *r
		u := peek.Uint64()
		i, j := u&0xff, u>>11
		x := r.ExpFloat64()
		d := draw{n, math.Float64bits(x)}
		switch {
		case j < zigK[i]:
		case i == 0:
			tail = append(tail, d)
		case float64(j)*zigW[i] == x:
			accept = append(accept, d)
		default:
			reject = append(reject, d)
		}
	}
	got := fmt.Sprintf("tail %v\naccept %v\nreject %v", tail[:4], accept[:4], reject[:4])
	want := "tail [{1660 4621511786113901918} {3022 4621683805359972778} {5228 4621519884577019408} {5620 4621225110837930662}]\n" +
		"accept [{79 4603333003860436279} {100 4613312888709068860} {202 4595734789329036078} {218 4619169980469914900}]\n" +
		"reject [{3 4605531265319845503} {56 4593326444734508089} {63 4612338944357465174} {168 4606325459832029968}]"
	if got != want {
		t.Fatalf("slow-path draws:\n%s\nwant\n%s", got, want)
	}
}
