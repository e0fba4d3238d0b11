package sim

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"testing"

	"github.com/ramp-sim/ramp/internal/microarch"
	"github.com/ramp-sim/ramp/internal/trace"
	"github.com/ramp-sim/ramp/internal/workload"
)

func TestRunTimingStreamFromTraceFile(t *testing.T) {
	// Generate a trace, serialise it to the binary format, read it back,
	// and verify the timing result matches the direct generator path —
	// the "bring your own trace" workflow.
	cfg := testConfig()
	cfg.Instructions = 100_000
	prof, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}

	direct, err := RunTiming(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}

	gen, err := workload.New(prof, cfg.Instructions)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for {
		in, err := gen.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(in); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := RunTimingStream(cfg, prof, r)
	if err != nil {
		t.Fatal(err)
	}
	if fromFile.Timing.IPC() != direct.Timing.IPC() {
		t.Fatalf("file-trace IPC %.4f != direct IPC %.4f",
			fromFile.Timing.IPC(), direct.Timing.IPC())
	}
	if fromFile.Timing.Instructions != direct.Timing.Instructions {
		t.Fatalf("instruction counts differ: %d vs %d",
			fromFile.Timing.Instructions, direct.Timing.Instructions)
	}
}

func TestRunTimingStreamRejectsNil(t *testing.T) {
	cfg := testConfig()
	prof, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunTimingStream(cfg, prof, nil); err == nil {
		t.Fatal("nil stream accepted")
	}
}

func TestSampledTraceIsRepresentative(t *testing.T) {
	// The paper's §4.5 sampling-validation property: a systematic sample
	// spread across the whole program, with skipped spans statistically
	// warmed, behaves like the full trace it summarizes. The comparison
	// excludes the cold-start head from both runs — the head region is not
	// stationary, and the study pipeline weights it separately (weight 1
	// via SampleHeadInstrs, re-expanding only post-head windows) — so what
	// is asserted here is that the post-head windows reproduce the full
	// trace's stationary IPC and activity from a tenth of the simulation
	// budget. An unwarmed sampler fails this by a wide margin: frozen
	// caches replay the cold-start bias into every window.
	if testing.Short() {
		t.Skip("sampling comparison is slow; skipped with -short")
	}
	cfg := testConfig()
	prof, err := workload.ByName("mesa")
	if err != nil {
		t.Fatal(err)
	}
	const head = 40_000

	cfg.Instructions = 1_000_000
	full, err := RunTiming(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}

	gen, err := workload.New(prof, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	sampler, err := trace.NewSystematicSampler(gen, trace.SamplerConfig{
		WindowInstrs: 10_000,
		PeriodInstrs: 100_000,
		HeadInstrs:   head,
	})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := RunTimingStream(cfg, prof, sampler)
	if err != nil {
		t.Fatal(err)
	}
	// Ten windows fit after the head: one per 100k period over the
	// remaining 960k instructions.
	if got := sampled.Timing.Instructions; got != head+10*10_000 {
		t.Fatalf("sampled %d instructions, want %d", got, head+10*10_000)
	}

	// afterHead aggregates instruction-weighted IPC and duration-weighted
	// AF past the first head retired instructions.
	afterHead := func(r microarch.Result) (ipc float64, af []float64) {
		var retired, cycles, skip int64
		af = make([]float64, len(r.AvgAF))
		for i := range r.Samples {
			s := &r.Samples[i]
			if skip < head {
				skip += s.Retired
				continue
			}
			retired += s.Retired
			cycles += s.Cycles
			for b := range af {
				af[b] += s.AF[b] * float64(s.Cycles)
			}
		}
		for b := range af {
			af[b] /= float64(cycles)
		}
		return float64(retired) / float64(cycles), af
	}
	fullIPC, fullAF := afterHead(full.Timing)
	sampIPC, sampAF := afterHead(sampled.Timing)

	if rel := sampIPC/fullIPC - 1; math.Abs(rel) > 0.05 {
		t.Errorf("sampled stationary IPC %.3f vs full-trace %.3f (%.1f%% off, want ≤ 5%%)",
			sampIPC, fullIPC, rel*100)
	}
	for s := range fullAF {
		f, g := fullAF[s], sampAF[s]
		if f < 0.01 {
			continue
		}
		if math.Abs(g/f-1) > 0.10 {
			t.Errorf("structure %d: sampled stationary AF %.4f vs full-trace %.4f", s, g, f)
		}
	}
}

// cancelAfter is a generator stream that cancels its context once it has
// handed out at least `after` instructions, and counts every instruction
// pulled.
type cancelAfter struct {
	*workload.Generator
	cancel func()
	after  int
	pulled int
}

func (c *cancelAfter) NextBatch(buf []trace.Instruction) (int, error) {
	n, err := c.Generator.NextBatch(buf)
	c.pulled += n
	if c.pulled >= c.after {
		c.cancel()
	}
	return n, err
}

// TestRunTimingStreamCancelsWithinOneBatch pins the batch path's
// cancellation cadence: once the context is cancelled, the timing stage
// pulls no further batch and fails with context.Canceled.
func TestRunTimingStreamCancelsWithinOneBatch(t *testing.T) {
	prof, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.New(prof, -1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const after = 3*trace.BatchLen + 100
	src := &cancelAfter{Generator: gen, cancel: cancel, after: after}
	_, err = RunTimingStreamContext(ctx, testConfig(), prof, src)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if src.pulled < after || src.pulled >= after+trace.BatchLen {
		t.Fatalf("pulled %d instructions; cancellation at %d must stop the run within one batch of %d",
			src.pulled, after, trace.BatchLen)
	}
}
