package workload

import (
	"math"
	"math/rand"
	"testing"
)

// rngSeeds covers the seed-reduction edge cases of math/rand's Seed (zero,
// negative, the int32 modulus itself, seeds above 2^32) plus every
// built-in profile seed.
func rngSeeds() []int64 {
	seeds := []int64{0, 1, -1, 1<<31 - 1, 1 << 40}
	for _, p := range Profiles() {
		seeds = append(seeds, p.Seed)
	}
	return seeds
}

// TestLFSourceMatchesMathRand pins lfSource to rand.New(rand.NewSource(s))
// value for value over a mix of every draw the generator makes, for long
// enough to run the in-place recurrence through thousands of blocks.
func TestLFSourceMatchesMathRand(t *testing.T) {
	calls := 2_000_000
	if testing.Short() {
		calls = 100_000
	}
	intnBounds := []int{1, 2, 7, 8, 32, 1000, 1<<31 - 1}
	int63nBounds := []int64{1, 3, 16 << 10, 30 << 10, 1536 << 10, 1 << 20, 1<<62 + 1, math.MaxInt64}
	mods := make([]modulus, len(int63nBounds))
	for i, n := range int63nBounds {
		mods[i] = newModulus(n)
	}
	for _, seed := range rngSeeds() {
		ref := rand.New(rand.NewSource(seed))
		var got lfSource
		got.seed(seed)
		// The call pattern comes from its own generator so it does not
		// line up with the register's block boundaries.
		pick := rand.New(rand.NewSource(seed ^ 0x5eed))
		for i := 0; i < calls; i++ {
			switch k := pick.Intn(5); k {
			case 0:
				if a, b := got.Float64(), ref.Float64(); a != b {
					t.Fatalf("seed %d call %d: Float64 %v, want %v", seed, i, a, b)
				}
			case 1:
				want := ref.Float64()
				if a := float64(got.unit()) / (1 << 63); a != want {
					t.Fatalf("seed %d call %d: unit %v, want %v", seed, i, a, want)
				}
			case 2:
				n := intnBounds[pick.Intn(len(intnBounds))]
				if a, b := got.Intn(n), ref.Intn(n); a != b {
					t.Fatalf("seed %d call %d: Intn(%d) %d, want %d", seed, i, n, a, b)
				}
			case 3:
				j := pick.Intn(len(int63nBounds))
				if a, b := got.Int63n(&mods[j]), ref.Int63n(int63nBounds[j]); a != b {
					t.Fatalf("seed %d call %d: Int63n(%d) %d, want %d", seed, i, int63nBounds[j], a, b)
				}
			default:
				if a, b := got.Int63(), ref.Int63(); a != b {
					t.Fatalf("seed %d call %d: Int63 %d, want %d", seed, i, a, b)
				}
			}
		}
	}
}

// TestModulusReduce checks the reciprocal remainder against % at the
// values where a one-off quotient estimate would show: multiples of n and
// their neighbours, up to the largest draw.
func TestModulusReduce(t *testing.T) {
	for _, n := range []int64{3, 7, 1000, 30 << 10, 1536 << 10, 1<<31 + 11, 1<<62 + 1, math.MaxInt64} {
		m := newModulus(n)
		for _, q := range []int64{0, 1, 2, 1000, math.MaxInt64 / n / 2, math.MaxInt64/n - 1, math.MaxInt64 / n} {
			for d := int64(-2); d <= 2; d++ {
				v := q*n + d
				if v < 0 || v > m.max {
					continue
				}
				if rem := m.reduce(uint64(v)); int64(rem) != v%n {
					t.Fatalf("n=%d v=%d: remainder %d, want %d", n, v, rem, v%n)
				}
			}
		}
	}
}

func TestFloat64Limit(t *testing.T) {
	if f := float64(float64Limit-1) / (1 << 63); f >= 1 {
		t.Fatalf("Float64 of %d is %v, want < 1", int64(float64Limit-1), f)
	}
	if f := float64(float64Limit) / (1 << 63); f != 1 {
		t.Fatalf("Float64 of %d is %v, want 1 (resampled)", int64(float64Limit), f)
	}
}

// checkThreshold verifies that v < thr agrees with pred(Float64 of v) at
// the threshold's neighbours, at the ends of the draw range, and at a
// spread of values in between.
func checkThreshold(t *testing.T, name string, thr int64, pred func(f float64) bool) {
	t.Helper()
	probe := []int64{0, 1, 2, float64Limit - 2, float64Limit - 1}
	for d := int64(-3); d <= 3; d++ {
		probe = append(probe, thr+d)
	}
	r := rand.New(rand.NewSource(thr))
	for i := 0; i < 64; i++ {
		probe = append(probe, r.Int63n(float64Limit))
	}
	for _, v := range probe {
		if v < 0 || v >= float64Limit {
			continue
		}
		if got, want := v < thr, pred(float64(v)/(1<<63)); got != want {
			t.Fatalf("%s: draw %d: threshold %d says %v, Float64 comparison says %v", name, v, thr, got, want)
		}
	}
}

// TestThresholdsMatchFloat64 checks the integer thresholds against the
// Float64 comparisons they replace at the edges of the probability range
// and at the floating-point neighbours of each probe.
func TestThresholdsMatchFloat64(t *testing.T) {
	var ps []float64
	for _, p := range []float64{0, 1, 0.5, 0.7, 0.98, 0.02, 1 / 13.8, 0.0113, 0.124 + 0.0113} {
		ps = append(ps, p, math.Nextafter(p, -1), math.Nextafter(p, 2))
	}
	ps = append(ps, math.SmallestNonzeroFloat64, math.Ldexp(1, -63), math.Ldexp(3, -64), math.NaN(), math.Inf(1), -0.5)
	for _, p := range ps {
		checkThreshold(t, "f < p", below(p), func(f float64) bool { return f < p })
		checkThreshold(t, "f <= p", threshold(func(f float64) bool { return f <= p }),
			func(f float64) bool { return f <= p })
		for _, c := range []float64{0, 0.5, 0.73, 1} {
			checkThreshold(t, "f*c < p", threshold(func(f float64) bool { return f*c < p }),
				func(f float64) bool { return f*c < p })
		}
	}
	if got := below(0); got != 0 {
		t.Errorf("below(0) = %d, want 0: Float64() < 0 never holds", got)
	}
	if got := below(1); got != float64Limit {
		t.Errorf("below(1) = %d, want %d: Float64() < 1 always holds", got, int64(float64Limit))
	}
	// Draws from 2^62-256 (half the float64 spacing just below 2^62) up
	// convert to exactly 2^62, so Float64() < 0.5 already fails there.
	if got := below(0.5); got != 1<<62-256 {
		t.Errorf("below(0.5) = %d, want 2^62-256", got)
	}
}

// TestGeneratorThresholdsMatchFloat64 checks every threshold a built-in
// (and a phased) generator derives against the Float64 comparison it
// stands for, with each probability spelled out in float arithmetic.
func TestGeneratorThresholdsMatchFloat64(t *testing.T) {
	profs := append(Profiles(), phasedProfile(t))
	for _, p := range profs {
		g, err := New(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		d := &g.draw
		checkThreshold(t, p.Name+" near", d.near, func(f float64) bool { return f < p.NearDepProb })
		checkThreshold(t, p.Name+" geometric", d.geoStop, func(f float64) bool { return !(f > 1/p.DepDist) })
		m := p.Mix
		nonBranch := m.Sum() - m.Branch
		cum := []float64{
			m.IntALU,
			m.IntALU + m.IntMul,
			m.IntALU + m.IntMul + m.IntDiv,
			m.IntALU + m.IntMul + m.IntDiv + m.FPOp,
			m.IntALU + m.IntMul + m.IntDiv + m.FPOp + m.FPDiv,
			m.IntALU + m.IntMul + m.IntDiv + m.FPOp + m.FPDiv + m.Load,
			m.IntALU + m.IntMul + m.IntDiv + m.FPOp + m.FPDiv + m.Load + m.Store,
		}
		for k, c := range cum {
			checkThreshold(t, p.Name+" mix", d.mix[k], func(f float64) bool { return f*nonBranch < c })
		}
		checkThreshold(t, p.Name+" fp", d.fpMem, func(f float64) bool { return f < 0.7 })
		for parity, pos := range []int64{0, p.PhaseInstrs} {
			scale := g.phaseScaleAt(pos)
			coldProb, warmProb := p.ColdProb*scale, p.WarmProb*scale
			checkThreshold(t, p.Name+" cold", d.region[parity].cold, func(f float64) bool { return f < coldProb })
			checkThreshold(t, p.Name+" warm", d.region[parity].warm, func(f float64) bool { return f < coldProb+warmProb })
		}
		biases := map[int64]bool{}
		for _, b := range g.blocks {
			biases[b.taken] = true
		}
		// Float64 variables, not constants: sampleBias computes 1-acc in
		// float64 arithmetic.
		strong, weak := 0.98, 0.62
		for _, bias := range []float64{strong, 1 - strong, weak, 1 - weak} {
			thr := below(bias)
			checkThreshold(t, p.Name+" taken", thr, func(f float64) bool { return f < bias })
			delete(biases, thr)
		}
		if len(biases) != 0 {
			t.Errorf("%s: block thresholds outside the four sampleBias values: %v", p.Name, biases)
		}
	}
}

// geometricLoop is the per-draw loop lfSource.geometric replaces.
func geometricLoop(r *lfSource, stop int64, maxD int) int {
	d := 1
	for d < maxD && r.unit() >= stop {
		d++
	}
	return d
}

// TestGeometricMatchesLoop checks that the bulk scan returns the loop's
// count and leaves the source where the loop would, across block refills,
// at the stop extremes, and over values unit resamples.
func TestGeometricMatchesLoop(t *testing.T) {
	stops := []int64{0, 1, 1 << 59, 1 << 61, 1 << 62, float64Limit - 1, float64Limit}
	for _, seed := range []int64{0, 1, 42} {
		var got, want lfSource
		got.seed(seed)
		// Plant values at and above the resample limit so both paths must
		// skip them; the recurrence carries them into later blocks.
		for i := 0; i < lfLen; i += 37 {
			got.vec[i] = float64Limit + uint64(i)%512
		}
		want = got
		pick := rand.New(rand.NewSource(seed))
		for i := 0; i < 200_000; i++ {
			stop := stops[pick.Intn(len(stops))]
			maxD := 1 + pick.Intn(20)
			if a, b := got.geometric(stop, maxD), geometricLoop(&want, stop, maxD); a != b {
				t.Fatalf("seed %d call %d: geometric(%d, %d) = %d, want %d", seed, i, stop, maxD, a, b)
			}
			if got != want {
				t.Fatalf("seed %d call %d: source state diverged", seed, i)
			}
		}
	}
}
