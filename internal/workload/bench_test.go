package workload

import (
	"testing"

	"github.com/ramp-sim/ramp/internal/trace"
)

// BenchmarkGenerator measures trace generation alone, in the batches the
// timing pipeline pulls, for the four applications of the perfbench cold
// workloads. Each op generates one batch; ns/instr is the figure that
// sits next to perfbench's workload.ns_per_instr layer row.
func BenchmarkGenerator(b *testing.B) {
	for _, name := range []string{"ammp", "mesa", "gzip", "crafty"} {
		b.Run(name, func(b *testing.B) {
			prof, err := ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			g, err := New(prof, -1)
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]trace.Instruction, trace.BatchLen)
			b.ResetTimer()
			var total int64
			for i := 0; i < b.N; i++ {
				n, err := g.NextBatch(buf)
				if err != nil {
					b.Fatal(err)
				}
				total += int64(n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/instr")
		})
	}
}
