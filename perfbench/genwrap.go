package main

import (
	"errors"
	"time"

	"github.com/ramp-sim/ramp/internal/trace"
	"github.com/ramp-sim/ramp/internal/workload"
)

// genChunk is how many instructions one generator refill produces, so the
// clock is read twice per chunk rather than per instruction.
const genChunk = 4096

// timedGen wraps a workload generator so its cost can be measured apart
// from the pipeline that consumes it. Instructions are produced in timed
// refills of up to genChunk into a buffer; skips are forwarded and timed.
//
// A systematic sampler skips the source between windows, and the
// generator's state after a skip depends on how many instructions it had
// produced before it. A refill therefore never runs past the point where
// the sampler will next skip: with a sampling plan the wrapper knows the
// head and window lengths and stops each refill at the window boundary,
// so the generator sees exactly the calls it would see unwrapped.
type timedGen struct {
	gen *workload.Generator
	buf []trace.Instruction
	pos int
	err error // sticky generator error, returned once buf drains

	window int64 // instructions per sampled window; 0 = never skipped
	left   int64 // instructions before the sampler's next skip

	genTime, skipTime time.Duration
	produced, skipped int64
}

// newTimedGen wraps gen. head and window describe the sampling plan that
// will consume it (0, 0 for an unsampled stream).
func newTimedGen(gen *workload.Generator, head, window int64) *timedGen {
	g := &timedGen{gen: gen, buf: make([]trace.Instruction, 0, genChunk), window: window, left: -1}
	if window > 0 {
		g.left = head + window
	}
	return g
}

// Next returns the next buffered instruction, refilling when empty.
func (g *timedGen) Next() (trace.Instruction, error) {
	if g.pos == len(g.buf) {
		g.refill()
		if len(g.buf) == 0 {
			return trace.Instruction{}, g.err
		}
	}
	in := g.buf[g.pos]
	g.pos++
	return in, nil
}

func (g *timedGen) refill() {
	g.buf, g.pos = g.buf[:0], 0
	if g.err != nil {
		return
	}
	n := int64(genChunk)
	if g.left >= 0 && g.left < n {
		n = g.left
	}
	start := time.Now()
	for i := int64(0); i < n; i++ {
		in, err := g.gen.Next()
		if err != nil {
			g.err = err
			break
		}
		g.buf = append(g.buf, in)
	}
	g.genTime += time.Since(start)
	g.produced += int64(len(g.buf))
	if g.left >= 0 {
		g.left -= int64(len(g.buf))
	}
}

var errSkipBuffered = errors.New("perfbench: skip requested with buffered instructions")

// Skip implements trace.Skipper.
func (g *timedGen) Skip(n int64) (int64, error) {
	return g.skip(func() (int64, error) { return g.gen.Skip(n) })
}

// SkipWarm implements trace.WarmSkipper.
func (g *timedGen) SkipWarm(n int64, w trace.MemWarmer) (int64, error) {
	return g.skip(func() (int64, error) { return g.gen.SkipWarm(n, w) })
}

func (g *timedGen) skip(do func() (int64, error)) (int64, error) {
	if g.pos != len(g.buf) {
		return 0, errSkipBuffered
	}
	start := time.Now()
	n, err := do()
	g.skipTime += time.Since(start)
	g.skipped += n
	g.left = g.window
	return n, err
}
