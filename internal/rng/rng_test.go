package rng

import (
	"math"
	"testing"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestNewDistinctSeeds(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical outputs of 100", same)
	}
}

func TestZeroSeedValidState(t *testing.T) {
	r := New(0)
	if r.s == [4]uint64{} {
		t.Fatal("seed 0 produced all-zero state")
	}
	if x, y := r.Uint64(), r.Uint64(); x == 0 && y == 0 {
		t.Fatal("generator looks stuck at zero")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("mean of %d uniforms = %v, want ~0.5", n, mean)
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(3)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if r.Bool(-0.5) {
			t.Fatal("Bool(-0.5) returned true")
		}
		if !r.Bool(1.5) {
			t.Fatal("Bool(1.5) returned false")
		}
	}
}

func TestBoolRate(t *testing.T) {
	r := New(5)
	const n = 200000
	const p = 0.3
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(p) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bool(%v) rate = %v over %d trials", p, got, n)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(9)
	for _, n := range []int{1, 2, 3, 7, 64, 1000} {
		seen := make(map[int]bool)
		for i := 0; i < 50*n; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			seen[v] = true
		}
		if n <= 64 && len(seen) != n {
			t.Fatalf("Intn(%d) visited only %d values in %d draws", n, len(seen), 50*n)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBits(t *testing.T) {
	r := New(13)
	for _, n := range []int{0, 1, 3, 32, 63, 64} {
		for i := 0; i < 100; i++ {
			v := r.Bits(n)
			if n < 64 && v>>uint(n) != 0 {
				t.Fatalf("Bits(%d) = %#x has high bits set", n, v)
			}
		}
	}
	if New(1).Bits(0) != 0 {
		t.Fatal("Bits(0) != 0")
	}
}

func TestBitsPanics(t *testing.T) {
	for _, n := range []int{-1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Bits(%d) did not panic", n)
				}
			}()
			New(1).Bits(n)
		}()
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	for _, n := range []int{0, 1, 2, 5, 30} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has len %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformish(t *testing.T) {
	// Each of the 6 permutations of 3 elements should appear roughly 1/6 of
	// the time.
	r := New(19)
	counts := make(map[[3]int]int)
	const n = 60000
	for i := 0; i < n; i++ {
		p := r.Perm(3)
		counts[[3]int{p[0], p[1], p[2]}]++
	}
	if len(counts) != 6 {
		t.Fatalf("saw %d distinct permutations, want 6", len(counts))
	}
	for k, c := range counts {
		f := float64(c) / n
		if math.Abs(f-1.0/6) > 0.01 {
			t.Fatalf("permutation %v frequency %v, want ~1/6", k, f)
		}
	}
}

// TestSeedMatchesNew: reseeding in place reaches exactly New's state
// whatever the generator held before, so a harness may reuse one
// generator across blocks.
func TestSeedMatchesNew(t *testing.T) {
	r := New(5)
	for i := 0; i < 10; i++ {
		r.Uint64()
	}
	for _, seed := range []uint64{0, 1, 99, 1 << 63} {
		r.Seed(seed)
		want := New(seed)
		for i := 0; i < 100; i++ {
			if r.Uint64() != want.Uint64() {
				t.Fatalf("Seed(%d) diverges from New(%d) at draw %d", seed, seed, i)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { r.Seed(7) }); n != 0 {
		t.Errorf("Seed allocates %v times per call, want 0", n)
	}
}

// TestSplitMixReference pins SplitMix to the SplitMix64 generator
// stepped by hand: output i of seed is the (i+1)-th draw.
func TestSplitMixReference(t *testing.T) {
	const seed = 123
	state := uint64(seed)
	for i := uint64(0); i < 64; i++ {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		if got := SplitMix(seed, i); got != z {
			t.Fatalf("SplitMix(%d, %d) = %#x, want %#x", seed, i, got, z)
		}
	}
}

// TestSplitMixDistinctStreams: substream seeds of one seed are distinct,
// and so are the streams they start.
func TestSplitMixDistinctStreams(t *testing.T) {
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 4096; i++ {
		s := SplitMix(99, i)
		if j, dup := seen[s]; dup {
			t.Fatalf("substreams %d and %d share seed %#x", j, i, s)
		}
		seen[s] = i
	}
	a, b := New(SplitMix(99, 0)), New(SplitMix(99, 1))
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("neighbouring substreams agree on %d of 100 draws", same)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Float64()
	}
	_ = sink
}
