package exp

import (
	"context"
	"reflect"
	"testing"

	"revft/internal/resultcache"
	"revft/internal/stats"
	"revft/internal/sweep"
)

// TestPointSeedGridInvariance pins the property the result cache's
// near-miss reuse depends on: an estimate's trial stream is addressed by
// the swept ε value, not its grid index, so computing ε on a 2-point
// subset grid is bit-identical to computing it on the 3-point superset.
func TestPointSeedGridInvariance(t *testing.T) {
	super := []float64{1e-3, 3.1e-3, 1e-2}
	sub := []float64{1e-3, 1e-2} // superset indices 0 and 2
	p := MCParams{Trials: 400, Workers: 2, Seed: 7}
	ctx := context.Background()

	run := func(build func([]float64, MCParams) (sweep.PointFunc, func() map[string]int), gs []float64, pt, trials int) []stats.Bernoulli {
		t.Helper()
		fn, _ := build(gs, p)
		ests, err := fn(ctx, pt, 0, trials)
		if err != nil {
			t.Fatal(err)
		}
		return ests
	}

	for name, build := range map[string]func([]float64, MCParams) (sweep.PointFunc, func() map[string]int){
		"recovery": recoveryPointFunc,
		"local":    localPointFunc,
	} {
		for i, superIdx := range []int{0, 2} {
			got := run(build, sub, i, p.Trials)
			want := run(build, super, superIdx, p.Trials)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: subset point %d != superset point %d:\n got %+v\nwant %+v", name, i, superIdx, got, want)
			}
		}
	}

	// levels indexes points as level×grid row-major; the invariance must
	// hold per (level, ε) pair.
	lfnSub, _ := levelsPointFunc(sub, 1, p)
	lfnSuper, _ := levelsPointFunc(super, 1, p)
	for l := 0; l <= 1; l++ {
		for i, superIdx := range []int{0, 2} {
			got, err := lfnSub(ctx, l*len(sub)+i, 0, p.Trials)
			if err != nil {
				t.Fatal(err)
			}
			want, werr := lfnSuper(ctx, l*len(super)+superIdx, 0, p.Trials)
			if werr != nil {
				t.Fatal(werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("levels L%d: subset point != superset point for ε=%g", l, sub[i])
			}
		}
	}

	afnSub, _ := adderPointFunc(3, sub, p)
	afnSuper, _ := adderPointFunc(3, super, p)
	got, err := afnSub(ctx, 1, 0, p.Trials)
	if err != nil {
		t.Fatal(err)
	}
	want, werr := afnSuper(ctx, 2, 0, p.Trials)
	if werr != nil {
		t.Fatal(werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("adder: subset point != superset point")
	}
}

// TestRunCachedRoundTrip runs a sweep with the cache in front twice: the
// first run computes and stores, the second is served from the store and
// must produce a deeply equal table with zero recompute.
func TestRunCachedRoundTrip(t *testing.T) {
	gs := []float64{1e-3, 1e-2}
	p := MCParams{Trials: 300, Workers: 2, Seed: 21}
	st := &resultcache.Store{Dir: t.TempDir()}
	ctx := context.Background()

	t1, err := RecoveryCtx(ctx, gs, p, SweepOptions{Cache: st})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := RecoveryCtx(ctx, gs, p, SweepOptions{Cache: st})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(t1, t2) {
		t.Fatalf("cached table differs from computed table:\n%+v\nvs\n%+v", t1, t2)
	}

	// A different seed is a different digest: clean miss, fresh compute.
	p2 := p
	p2.Seed++
	t3, err := RecoveryCtx(ctx, gs, p2, SweepOptions{Cache: st})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(t1, t3) {
		t.Fatal("different seed should not be served the cached table")
	}
}
