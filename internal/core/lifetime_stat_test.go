package core

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/ramp-sim/ramp/internal/stats"
)

// drawSorted draws n samples from d with the given mean and returns them
// sorted, plus the sample mean.
func drawSorted(t *testing.T, d Distribution, mean float64, n int, seed int64) ([]float64, float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	var sum float64
	for i := range xs {
		xs[i] = d.Sample(rng, mean)
		sum += xs[i]
	}
	sort.Float64s(xs)
	return xs, sum / float64(n)
}

type quantiler interface {
	Quantile(mean, p float64) float64
}

// checkSampler bounds the seeded sample mean and P10/P50/P90 against the
// distribution's closed-form values.
func checkSampler(t *testing.T, d Distribution, mean float64, seed int64) {
	t.Helper()
	const n = 200_000
	xs, sampleMean := drawSorted(t, d, mean, n, seed)
	if relErr := math.Abs(sampleMean-mean) / mean; relErr > 0.01 {
		t.Errorf("%s: sample mean %v vs requested mean %v (rel err %.4f > 1%%)",
			d.Name(), sampleMean, mean, relErr)
	}
	q := d.(quantiler)
	for _, p := range []float64{0.10, 0.50, 0.90} {
		want := q.Quantile(mean, p)
		got, err := stats.PercentileSorted(xs, p*100)
		if err != nil {
			t.Fatal(err)
		}
		if relErr := math.Abs(got-want) / want; relErr > 0.02 {
			t.Errorf("%s: P%.0f sample %v vs analytic %v (rel err %.4f > 2%%)",
				d.Name(), p*100, got, want, relErr)
		}
	}
}

func TestWeibullSamplesMatchAnalytic(t *testing.T) {
	checkSampler(t, Weibull{Shape: 1.8}, 1000, 101)
	checkSampler(t, Weibull{Shape: 2.35}, 7e5, 102)
}

func TestLognormalSamplesMatchAnalytic(t *testing.T) {
	checkSampler(t, Lognormal{Sigma: 0.5}, 1000, 103)
	checkSampler(t, Lognormal{Sigma: 0.3}, 4e4, 104)
}

func TestExponentialSamplesMatchAnalytic(t *testing.T) {
	checkSampler(t, Exponential{}, 1000, 105)
}

func TestExponentialIsShapeOneWeibull(t *testing.T) {
	// Closed form: the β=1 Weibull quantile function equals the
	// exponential's at every p (Γ(2)=1 so scale=mean).
	w := Weibull{Shape: 1}
	e := Exponential{}
	for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		we := w.Quantile(1234.5, p)
		ee := e.Quantile(1234.5, p)
		if math.Abs(we-ee)/ee > 1e-12 {
			t.Errorf("p=%v: weibull(1) quantile %v != exponential quantile %v", p, we, ee)
		}
	}
	// Sampled: both samplers reproduce the same distribution (the draw
	// paths differ — ExpFloat64 ziggurat vs inverse CDF — so compare
	// quantile estimates, not streams).
	const mean = 500.0
	ws, _ := drawSorted(t, w, mean, 200_000, 201)
	es, _ := drawSorted(t, e, mean, 200_000, 202)
	for _, p := range []float64{10, 50, 90} {
		wq, _ := stats.PercentileSorted(ws, p)
		eq, _ := stats.PercentileSorted(es, p)
		if relErr := math.Abs(wq-eq) / eq; relErr > 0.02 {
			t.Errorf("P%v: weibull(1) %v vs exponential %v (rel err %.4f)", p, wq, eq, relErr)
		}
	}
}

func TestLifetimeModelValidateRejectsBadParameters(t *testing.T) {
	cases := []struct {
		name string
		dist Distribution
		frag string
	}{
		{"weibull zero shape", Weibull{Shape: 0}, "weibull shape must be a positive finite number"},
		{"weibull negative shape", Weibull{Shape: -2}, "weibull shape must be a positive finite number"},
		{"weibull NaN shape", Weibull{Shape: math.NaN()}, "weibull shape"},
		{"lognormal zero sigma", Lognormal{Sigma: 0}, "lognormal sigma must be a positive finite number"},
		{"lognormal negative sigma", Lognormal{Sigma: -0.5}, "lognormal sigma must be a positive finite number"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := SOFRLifetimes()
			m.Dist[TDDB] = c.dist
			err := m.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %#v", c.dist)
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Errorf("error %q does not mention %q", err, c.frag)
			}
			if !strings.Contains(err.Error(), TDDB.String()) {
				t.Errorf("error %q does not name the mechanism %v", err, TDDB)
			}
		})
	}
	var empty LifetimeModel
	if err := empty.Validate(); err == nil {
		t.Error("Validate accepted nil distributions")
	}
	if err := SOFRLifetimes().Validate(); err != nil {
		t.Errorf("SOFR model invalid: %v", err)
	}
	if err := WearOutLifetimes().Validate(); err != nil {
		t.Errorf("wear-out model invalid: %v", err)
	}
}

func TestLifetimeModelByName(t *testing.T) {
	for _, name := range []string{"sofr", "exponential"} {
		m, err := LifetimeModelByName(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if _, ok := m.Dist[EM].(Exponential); !ok {
			t.Errorf("%q: EM dist = %T, want Exponential", name, m.Dist[EM])
		}
	}
	for _, name := range []string{"wearout", "wear-out"} {
		m, err := LifetimeModelByName(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if _, ok := m.Dist[EM].(Lognormal); !ok {
			t.Errorf("%q: EM dist = %T, want Lognormal", name, m.Dist[EM])
		}
	}
	if _, err := LifetimeModelByName("gamma"); err == nil {
		t.Error("unknown model accepted")
	}
	if got := CanonicalModelName("exponential"); got != ModelSOFR {
		t.Errorf("CanonicalModelName(exponential) = %q", got)
	}
	if got := CanonicalModelName("wear-out"); got != ModelWearOut {
		t.Errorf("CanonicalModelName(wear-out) = %q", got)
	}
	if got := CanonicalModelName("custom"); got != "custom" {
		t.Errorf("CanonicalModelName(custom) = %q", got)
	}
}

func TestReplicaSeedProperties(t *testing.T) {
	// Determinism.
	if ReplicaSeed(42, 3, 7) != ReplicaSeed(42, 3, 7) {
		t.Fatal("ReplicaSeed not deterministic")
	}
	// Distinctness across a grid of (root, cell, replica) triples.
	seen := map[uint64][3]uint64{}
	for _, root := range []int64{0, 1, 42, -1} {
		for cell := uint64(0); cell < 8; cell++ {
			for rep := uint64(0); rep < 64; rep++ {
				s := ReplicaSeed(root, cell, rep)
				key := [3]uint64{uint64(root), cell, rep}
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: %v and %v both map to %#x", prev, key, s)
				}
				seen[s] = key
			}
		}
	}
}

func TestReplicaRandStreamsAreIndependentAndReproducible(t *testing.T) {
	a, b := NewReplicaRand(), NewReplicaRand()
	// Same stream → identical draws, regardless of what the generator was
	// used for before reseeding.
	a.Seed(1, 2, 3)
	want := []float64{a.Rand().Float64(), a.Rand().NormFloat64(), a.Rand().ExpFloat64()}
	b.Seed(9, 9, 9)
	b.Rand().Float64()
	b.Seed(1, 2, 3)
	got := []float64{b.Rand().Float64(), b.Rand().NormFloat64(), b.Rand().ExpFloat64()}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("draw %d: %v != %v after reseed", i, got[i], want[i])
		}
	}
	// Adjacent replicas decorrelate.
	a.Seed(1, 2, 4)
	if x := a.Rand().Float64(); x == want[0] {
		t.Error("adjacent replica produced identical first draw")
	}
}

func TestNewLifetimeSamplerErrors(t *testing.T) {
	var empty Breakdown
	if _, err := NewLifetimeSampler(empty, SOFRLifetimes()); err == nil {
		t.Error("all-zero breakdown accepted")
	}
	var b Breakdown
	b.ByStructMech[0][EM] = 10
	bad := SOFRLifetimes()
	bad.Dist[SM] = Weibull{Shape: -1}
	if _, err := NewLifetimeSampler(b, bad); err == nil {
		t.Error("invalid model accepted")
	}
}
