package core

import (
	"math/rand"
	"testing"

	"github.com/ramp-sim/ramp/internal/floorplan"
	"github.com/ramp-sim/ramp/internal/scaling"
)

// BenchmarkInstant measures one full failure-rate evaluation — called once
// per structure set per 1µs interval, this is the reliability pipeline's
// inner loop.
func BenchmarkInstant(b *testing.B) {
	e, err := NewEvaluator(DefaultParams(), ReferenceConstants(), scaling.Base(),
		floorplan.POWER4().Areas())
	if err != nil {
		b.Fatal(err)
	}
	af := [7]float64{0.15, 0.24, 0.15, 0.23, 0.13, 0.19, 0.06}
	var temps [7]float64
	for i := range temps {
		temps[i] = 350 + float64(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		bd := e.Instant(af, temps, 1.3, 349)
		sink += bd.ByStructMech[0][0]
	}
	if sink == 0 {
		b.Fatal("rates were zero")
	}
}

// BenchmarkMonteCarloSample measures the lifetime-sampling inner loop.
func BenchmarkMonteCarloSample(b *testing.B) {
	e, err := NewEvaluator(DefaultParams(), ReferenceConstants(), scaling.Base(),
		floorplan.POWER4().Areas())
	if err != nil {
		b.Fatal(err)
	}
	af := [7]float64{0.15, 0.24, 0.15, 0.23, 0.13, 0.19, 0.06}
	var temps [7]float64
	for i := range temps {
		temps[i] = 350 + float64(i)
	}
	bd := e.Instant(af, temps, 1.3, 349)
	sampler, err := NewLifetimeSampler(bd, WearOutLifetimes())
	if err != nil {
		b.Fatal(err)
	}
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		for j := 0; j < 100; j++ {
			sink += sampler.Sample(rng)
		}
	}
	if sink <= 0 {
		b.Fatal("no positive lifetimes sampled")
	}
}
