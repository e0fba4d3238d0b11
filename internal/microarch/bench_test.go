package microarch

import (
	"testing"

	"github.com/ramp-sim/ramp/internal/trace"
	"github.com/ramp-sim/ramp/internal/workload"
)

func BenchmarkCacheAccessHit(b *testing.B) {
	c, err := NewCache(CacheConfig{SizeBytes: 32 << 10, LineBytes: 128, Assoc: 2})
	if err != nil {
		b.Fatal(err)
	}
	c.Access(0x1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0x1000)
	}
}

func BenchmarkCacheAccessStream(b *testing.B) {
	c, err := NewCache(CacheConfig{SizeBytes: 2 << 20, LineBytes: 128, Assoc: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i) * 128)
	}
}

func BenchmarkPredictor(b *testing.B) {
	p := NewPredictor(14, 2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := uint64(0x1000 + (i%64)*12)
		p.PredictAndUpdate(pc, i%3 != 0, pc+0x40)
	}
}

// BenchmarkPipeline measures the timing pipeline alone on a pre-collected
// realistic trace, in ns per simulated instruction — the figure that sits
// next to perfbench's microarch.ns_per_instr layer row.
func BenchmarkPipeline(b *testing.B) {
	prof, err := workload.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	instrs := make([]trace.Instruction, 0, 200_000)
	gen, err := workload.New(prof, int64(cap(instrs)))
	if err != nil {
		b.Fatal(err)
	}
	instrs, err = trace.Collect(gen, cap(instrs))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		sim, err := NewSimulator(DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(trace.NewSliceStream(instrs))
		if err != nil {
			b.Fatal(err)
		}
		total += res.Instructions
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/instr")
}

// BenchmarkSkipWarm measures phase fidelity's statistical cache warming:
// each op skips one default sampling gap (90k instructions) of gzip,
// replaying its memory traffic into a simulator's caches, in ns per
// skipped instruction — the figure behind perfbench's workload.skip_s.
func BenchmarkSkipWarm(b *testing.B) {
	const gap = 90_000
	prof, err := workload.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.New(prof, -1)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := NewSimulator(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	// Generate a window first so the skip replays at the measured dynamic
	// memory rate, as it does between sampled windows.
	if _, err := trace.Collect(gen, 10_000); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.SkipWarm(gap, sim); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*gap), "ns/skipped")
}
