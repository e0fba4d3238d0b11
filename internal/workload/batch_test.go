package workload

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"testing"

	"github.com/ramp-sim/ramp/internal/trace"
)

var batchSizes = []int{1, 7, trace.BatchLen, 4096}

// TestNextBatchMatchesNext pins that batches carry the same instructions
// as Next, including the stream's end: a final batch shorter than the
// buffer, then io.EOF with no instructions.
func TestNextBatchMatchesNext(t *testing.T) {
	for _, name := range []string{"ammp", "gzip"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int64{0, 1, 6, 7, 8, 10_000} {
			ref, err := New(p, n)
			if err != nil {
				t.Fatal(err)
			}
			want, err := trace.Collect(ref, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range batchSizes {
				g, err := New(p, n)
				if err != nil {
					t.Fatal(err)
				}
				var got []trace.Instruction
				buf := make([]trace.Instruction, size)
				for {
					k, err := g.NextBatch(buf)
					if errors.Is(err, io.EOF) {
						if k != 0 {
							t.Fatalf("%s n=%d size=%d: %d instructions with EOF", name, n, size, k)
						}
						break
					}
					if err != nil || k <= 0 {
						t.Fatalf("%s n=%d size=%d: NextBatch = %d, %v", name, n, size, k, err)
					}
					got = append(got, buf[:k]...)
				}
				if len(got) != len(want) {
					t.Fatalf("%s n=%d size=%d: %d instructions, want %d", name, n, size, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s n=%d size=%d: instruction %d differs", name, n, size, i)
					}
				}
				if g.Produced() != ref.Produced() {
					t.Fatalf("%s n=%d size=%d: produced %d, want %d", name, n, size, g.Produced(), ref.Produced())
				}
			}
		}
	}
}

// eventLog hashes the order in which a consumer sees instructions and the
// sampler warms skipped memory traffic into it. A batch that ran past a
// window boundary would warm the gap before the consumer processed the
// window's last instructions, and the logs would differ.
type eventLog struct{ h hash.Hash }

func (l eventLog) WarmAccess(addr uint64, store bool) {
	fmt.Fprintf(l.h, "w%x/%t;", addr, store)
}

func (l eventLog) consume(in *trace.Instruction) {
	fmt.Fprintf(l.h, "i%x/%x;", in.PC, in.Addr)
}

// TestSamplerNextBatchMatchesNext drives sampled generator streams with
// both gap paths, Skip and SkipWarm, and compares instructions, warm
// traffic and their interleaving between Next and NextBatch consumers.
func TestSamplerNextBatchMatchesNext(t *testing.T) {
	p, err := ByName("mesa")
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.SamplerConfig{WindowInstrs: 3000, PeriodInstrs: 11_000, HeadInstrs: 5000}
	const total = 120_000
	for _, warm := range []bool{false, true} {
		run := func(size int) (string, int64, int64) {
			g, err := New(p, total)
			if err != nil {
				t.Fatal(err)
			}
			s, err := trace.NewSystematicSampler(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			log := eventLog{sha256.New()}
			if warm {
				s.SetWarmer(log)
			}
			if size == 0 {
				for {
					in, err := s.Next()
					if errors.Is(err, io.EOF) {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					log.consume(&in)
				}
			} else {
				buf := make([]trace.Instruction, size)
				for {
					n, err := s.NextBatch(buf)
					if errors.Is(err, io.EOF) {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					for i := range buf[:n] {
						log.consume(&buf[i])
					}
				}
			}
			return fmt.Sprintf("%x", log.h.Sum(nil)), s.Kept(), s.Dropped()
		}
		want, wantKept, wantDropped := run(0)
		for _, size := range batchSizes {
			got, kept, dropped := run(size)
			if got != want || kept != wantKept || dropped != wantDropped {
				t.Errorf("warm=%v size=%d: log %s kept %d dropped %d; want %s %d %d",
					warm, size, got[:12], kept, dropped, want[:12], wantKept, wantDropped)
			}
		}
	}
}
