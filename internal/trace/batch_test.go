package trace

import (
	"errors"
	"io"
	"testing"
)

// batchSizes are the buffer lengths every batch test runs: single
// instructions, a size that leaves ragged ends, the consumer's size and a
// size beyond it.
var batchSizes = []int{1, 7, BatchLen, 4096}

// drainBatches pulls s to EOF in batches of size, checking the NextBatch
// contract on every call.
func drainBatches(t *testing.T, s BatchStream, size int) []Instruction {
	t.Helper()
	var out []Instruction
	buf := make([]Instruction, size)
	for {
		n, err := s.NextBatch(buf)
		if errors.Is(err, io.EOF) {
			if n != 0 {
				t.Fatalf("NextBatch returned %d instructions with EOF", n)
			}
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		if n <= 0 || n > size {
			t.Fatalf("NextBatch returned %d instructions into a buffer of %d", n, size)
		}
		out = append(out, buf[:n]...)
	}
}

func drainNext(t *testing.T, s Stream) []Instruction {
	t.Helper()
	out, err := Collect(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameInstrs(t *testing.T, what string, got, want []Instruction) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d instructions, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: instruction %d is %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// nextOnly hides every method but Next, so Batched has to adapt it.
type nextOnly struct{ s Stream }

func (n nextOnly) Next() (Instruction, error) { return n.s.Next() }

func TestSliceStreamAndAdapterBatches(t *testing.T) {
	for _, total := range []int{0, 1, 6, 7, 8, 5000, 2*BatchLen + 3} {
		want := drainNext(t, countingStream(total))
		for _, size := range batchSizes {
			s := countingStream(total).(*SliceStream)
			sameInstrs(t, "SliceStream", drainBatches(t, s, size), want)
			if n, err := s.NextBatch(make([]Instruction, size)); n != 0 || !errors.Is(err, io.EOF) {
				t.Fatalf("drained SliceStream: NextBatch = %d, %v; want 0, EOF", n, err)
			}
			a := Batched(nextOnly{countingStream(total)})
			if _, ok := a.(*nextBatcher); !ok {
				t.Fatalf("Batched(nextOnly) is %T, want the adapter", a)
			}
			sameInstrs(t, "adapter", drainBatches(t, a, size), want)
		}
	}
	s := countingStream(3)
	if Batched(s) != s {
		t.Fatal("Batched wrapped a stream that already batches")
	}
}

// failAfter returns n instructions and then err.
type failAfter struct {
	n   int
	err error
}

func (f *failAfter) Next() (Instruction, error) {
	if f.n == 0 {
		return Instruction{}, f.err
	}
	f.n--
	return Instruction{PC: 4, Class: ClassIntALU}, nil
}

// TestAdapterDefersMidBatchError pins that an error met while filling a
// batch is reported by the next call, after the instructions read before
// it, so a consumer sees it at the same stream position as with Next.
func TestAdapterDefersMidBatchError(t *testing.T) {
	boom := errors.New("boom")
	a := Batched(&failAfter{n: 5, err: boom})
	buf := make([]Instruction, 8)
	if n, err := a.NextBatch(buf); n != 5 || err != nil {
		t.Fatalf("first batch = %d, %v; want 5, nil", n, err)
	}
	if n, err := a.NextBatch(buf); n != 0 || !errors.Is(err, boom) {
		t.Fatalf("second batch = %d, %v; want 0, boom", n, err)
	}
	if n, err := a.NextBatch(buf); n != 0 || !errors.Is(err, boom) {
		t.Fatalf("third batch = %d, %v; want 0, boom from the source again", n, err)
	}
}

// TestSamplerBatchesMatchNext drives the sampler's gap-reading path (a
// source without Skip) in batches and one at a time.
func TestSamplerBatchesMatchNext(t *testing.T) {
	cfgs := []SamplerConfig{
		{WindowInstrs: 10, PeriodInstrs: 35},
		{WindowInstrs: 10, PeriodInstrs: 35, HeadInstrs: 13},
		{WindowInstrs: 50, PeriodInstrs: 50},
		{WindowInstrs: 5000, PeriodInstrs: 9000, HeadInstrs: 4100},
	}
	for _, cfg := range cfgs {
		mk := func() *SystematicSampler {
			s, err := NewSystematicSampler(countingStream(30_000), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		ref := mk()
		want := drainNext(t, ref)
		for _, size := range batchSizes {
			s := mk()
			sameInstrs(t, "sampler", drainBatches(t, s, size), want)
			if s.Kept() != ref.Kept() || s.Dropped() != ref.Dropped() {
				t.Fatalf("%+v size %d: kept/dropped %d/%d, want %d/%d",
					cfg, size, s.Kept(), s.Dropped(), ref.Kept(), ref.Dropped())
			}
		}
	}
}
