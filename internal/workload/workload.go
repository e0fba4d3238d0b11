// Package workload generates synthetic instruction traces that stand in for
// the PowerPC SPEC2K traces used by the paper (§4.5). The original traces
// are proprietary IBM artifacts; each benchmark here is replaced by a
// parameterised generator whose instruction mix, instruction-level
// parallelism, memory-locality structure, code footprint, and branch
// predictability are tuned so that the simulated IPC and power on the
// 180nm base machine track Table 3 of the paper.
//
// The generators are deterministic: the same profile and seed always yield
// the same trace, which keeps experiments and tests reproducible.
package workload

import (
	"fmt"
	"io"
	"math"
	"math/bits"

	"github.com/ramp-sim/ramp/internal/trace"
)

// Suite labels a benchmark as integer or floating-point SPEC2K.
type Suite uint8

// Benchmark suites.
const (
	SuiteInt Suite = iota + 1
	SuiteFP
)

// String returns the paper's name for the suite.
func (s Suite) String() string {
	switch s {
	case SuiteInt:
		return "SpecInt"
	case SuiteFP:
		return "SpecFP"
	default:
		return fmt.Sprintf("suite(%d)", uint8(s))
	}
}

// Mix gives the fraction of dynamic instructions in each class. Fractions
// must be non-negative and sum to 1 (within rounding).
type Mix struct {
	IntALU float64
	IntMul float64
	IntDiv float64
	FPOp   float64
	FPDiv  float64
	Load   float64
	Store  float64
	Branch float64
	LCR    float64
}

// Sum returns the total of all fractions.
func (m Mix) Sum() float64 {
	return m.IntALU + m.IntMul + m.IntDiv + m.FPOp + m.FPDiv +
		m.Load + m.Store + m.Branch + m.LCR
}

// Validate checks that the mix is a proper distribution with a non-zero
// branch fraction (the control-flow skeleton requires branches).
func (m Mix) Validate() error {
	fracs := []float64{
		m.IntALU, m.IntMul, m.IntDiv, m.FPOp, m.FPDiv,
		m.Load, m.Store, m.Branch, m.LCR,
	}
	for _, f := range fracs {
		// The explicit non-finite check matters: NaN compares false against
		// every bound below and would otherwise slip through.
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("workload: non-finite mix fraction %v", f)
		}
		if f < 0 {
			return fmt.Errorf("workload: negative mix fraction %v", f)
		}
	}
	if s := m.Sum(); s < 0.999 || s > 1.001 {
		return fmt.Errorf("workload: mix sums to %v, want 1", s)
	}
	if m.Branch <= 0 {
		return fmt.Errorf("workload: branch fraction must be positive")
	}
	return nil
}

// Profile parameterises one synthetic benchmark.
type Profile struct {
	// Name is the SPEC2K benchmark this profile emulates.
	Name string
	// Suite is SpecInt or SpecFP.
	Suite Suite
	// Mix is the dynamic instruction-class distribution.
	Mix Mix
	// DepDist is the mean register-dependency distance in instructions;
	// smaller values create longer dependence chains and lower ILP.
	DepDist float64
	// NearDepProb is the probability that a source operand depends on a
	// recently produced value (versus a long-dead, always-ready value).
	NearDepProb float64
	// HotBytes, WarmBytes are the sizes of the L1-resident and L2-resident
	// data working sets. Cold accesses stream beyond the L2.
	HotBytes, WarmBytes uint64
	// WarmProb and ColdProb are the probabilities that a memory access
	// falls in the warm (L2) and cold (memory) regions; the remainder hits
	// the hot set. They control the L1/L2 miss rates.
	WarmProb, ColdProb float64
	// CodeBlocks is the number of static basic blocks; together with the
	// branch fraction it sets the instruction footprint seen by the L1 I-cache.
	CodeBlocks int
	// BranchPredictability in [0.5, 1] is the asymptotic accuracy a good
	// dynamic predictor can reach on this benchmark: static branch biases
	// are drawn so that the mean max(p, 1-p) equals this value.
	BranchPredictability float64
	// LoopProb is the probability that a taken branch targets an earlier
	// block (loop-back) rather than a forward block.
	LoopProb float64
	// TargetIPC and TargetPowerW record the paper's Table 3 operating
	// point for the 180nm base machine (for calibration reporting only).
	TargetIPC    float64
	TargetPowerW float64
	// PhaseInstrs, when positive, alternates the generator between a
	// compute-biased and a memory-biased program phase every PhaseInstrs
	// instructions, reproducing the coarse temporal behaviour variation of
	// real programs ("small [thermal] cycles which occur at a much higher
	// frequency, due to variations in application behavior", §2). Zero
	// disables phases; the calibrated Table 3 profiles ship with phases
	// off so their operating points stay pinned.
	PhaseInstrs int64
	// PhaseMemScale (> 1) multiplies the warm/cold access probabilities
	// during the memory phase; the compute phase divides by it, keeping
	// the whole-trace average behaviour near the base profile.
	PhaseMemScale float64
	// Seed makes the generated trace deterministic per benchmark.
	Seed int64
}

// Validate checks profile parameters for consistency.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile needs a name")
	}
	if p.Suite != SuiteInt && p.Suite != SuiteFP {
		return fmt.Errorf("workload: profile %q: invalid suite", p.Name)
	}
	if err := p.Mix.Validate(); err != nil {
		return fmt.Errorf("workload: profile %q: %w", p.Name, err)
	}
	// NaN parameters compare false against every range bound, so every
	// bracketed field is checked with the accepting comparison inverted:
	// !(lo <= v && v <= hi) rejects NaN along with out-of-range values.
	if !(p.DepDist >= 1) || math.IsInf(p.DepDist, 0) {
		return fmt.Errorf("workload: profile %q: DepDist %v not a finite value >= 1", p.Name, p.DepDist)
	}
	if !(p.NearDepProb >= 0 && p.NearDepProb <= 1) {
		return fmt.Errorf("workload: profile %q: NearDepProb out of [0,1]", p.Name)
	}
	if !(p.WarmProb >= 0 && p.ColdProb >= 0 && p.WarmProb+p.ColdProb <= 1) {
		return fmt.Errorf("workload: profile %q: invalid warm/cold probabilities", p.Name)
	}
	// Working-set sizes bound the generator's Int63n offset draws, which
	// need a positive int64 bound: sizes above MaxInt64 would wrap negative.
	if p.HotBytes == 0 || p.WarmBytes == 0 {
		return fmt.Errorf("workload: profile %q: working-set sizes must be positive", p.Name)
	}
	if p.HotBytes > math.MaxInt64 || p.WarmBytes > math.MaxInt64 {
		return fmt.Errorf("workload: profile %q: working-set sizes exceed 2^63-1 bytes", p.Name)
	}
	if p.CodeBlocks < 2 {
		return fmt.Errorf("workload: profile %q: need at least 2 code blocks", p.Name)
	}
	// The CFG is materialised per block; cap the footprint so a corrupt
	// profile cannot demand an unbounded allocation.
	if p.CodeBlocks > 1<<22 {
		return fmt.Errorf("workload: profile %q: %d code blocks exceeds the 2^22 cap", p.Name, p.CodeBlocks)
	}
	if !(p.BranchPredictability >= 0.5 && p.BranchPredictability <= 1) {
		return fmt.Errorf("workload: profile %q: predictability out of [0.5,1]", p.Name)
	}
	if !(p.LoopProb >= 0 && p.LoopProb <= 1) {
		return fmt.Errorf("workload: profile %q: LoopProb out of [0,1]", p.Name)
	}
	if p.PhaseInstrs < 0 {
		return fmt.Errorf("workload: profile %q: negative PhaseInstrs", p.Name)
	}
	if p.PhaseInstrs > 0 {
		if !(p.PhaseMemScale > 1) || math.IsInf(p.PhaseMemScale, 0) {
			return fmt.Errorf("workload: profile %q: PhaseMemScale must be a finite value above 1 with phases on", p.Name)
		}
		if (p.WarmProb+p.ColdProb)*p.PhaseMemScale > 1 {
			return fmt.Errorf("workload: profile %q: memory-phase probabilities exceed 1", p.Name)
		}
	}
	return nil
}

// Register name-space layout within trace.NumArchRegs: integer registers
// and FP registers occupy disjoint ranges, mimicking a RISC ISA.
const (
	_intRegBase  = 1
	_intRegCount = _regCount
	_fpRegBase   = 128
	_fpRegCount  = _regCount
	// _regCount registers of each kind; a power of two that _ringLen
	// divides, so round-robin positions wrap with a mask and one position
	// indexes both the register name and its ring slot.
	_regCount = 32
)

// block is one static basic block of the synthetic control-flow graph.
type block struct {
	startPC uint64
	length  int   // instructions including the terminating branch
	taken   int64 // the terminating branch is taken when a draw is below it
	target  int   // block index jumped to when taken
}

// _ringLen is the length of the recent-destination rings that source
// operands draw dependencies from; a power of two, so ring positions wrap
// with a mask.
const _ringLen = 16

// draws holds the per-instruction draw parameters, fixed for a generator's
// lifetime. Each threshold stands for the math/rand Float64 comparison
// in its comment (see threshold): the comparison holds exactly when
// lfSource.unit() returns a value below the threshold.
type draws struct {
	near    int64    // Float64() < NearDepProb: the source is a near dependency
	geoStop int64    // Float64() <= 1/DepDist: the geometric distance stops growing
	mix     [7]int64 // Float64()*nonBranch < the k-th prefix sum of the mix
	fpMem   int64    // Float64() < 0.7: an FP-suite load or store moves an FP value
	// region holds the cold and cold+warm data-access thresholds for the
	// even (compute or phase-free) and odd (memory) program phases.
	region    [2]struct{ cold, warm int64 }
	hot, warm modulus // Int63n bounds of the hot and warm working sets
}

// Generator produces the synthetic instruction stream for a profile. It
// implements trace.BatchStream. Create with New; the zero value is not
// usable.
type Generator struct {
	prof      Profile
	rng       lfSource
	draw      draws
	blocks    []block
	cur       int // current block index
	pos       int // position within current block
	recentInt [_ringLen]uint16
	recentFP  [_ringLen]uint16
	riPos     int // next integer destination, mod _intRegCount
	rfPos     int // next FP destination, mod _fpRegCount
	coldPtr   uint64
	remaining int64
	produced  int64
	// genCount/genMem tally instructions actually generated (not skipped)
	// and how many were loads or stores, giving SkipWarm the stream's
	// dynamic memory-access rate. The static Mix underestimates the branch
	// fraction — block lengths vary around 1/Mix.Branch and the dynamic
	// rate is the frequency-weighted mean of 1/length — so the dynamic
	// memory rate runs a few percent below Mix.Load+Mix.Store on
	// branch-heavy profiles.
	genCount int64
	genMem   int64
}

var (
	_ trace.BatchStream = (*Generator)(nil)
	_ trace.Skipper     = (*Generator)(nil)
	_ trace.WarmSkipper = (*Generator)(nil)
)

// New builds a deterministic generator for profile p producing n
// instructions (n < 0 means unbounded).
func New(p Profile, n int64) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{prof: p, remaining: n}
	g.rng.seed(p.Seed)
	for i := range g.recentInt {
		g.recentInt[i] = uint16(_intRegBase + i%_intRegCount)
	}
	for i := range g.recentFP {
		g.recentFP[i] = uint16(_fpRegBase + i%_fpRegCount)
	}
	g.buildCFG()
	g.buildDraws()
	return g, nil
}

// buildDraws computes the draw thresholds and bounds from the profile,
// evaluating each probability with the same float arithmetic the
// comparisons it replaces used.
func (g *Generator) buildDraws() {
	p := g.prof
	d := &g.draw
	d.near = below(p.NearDepProb)
	stop := 1 / p.DepDist
	d.geoStop = threshold(func(f float64) bool { return f <= stop })
	m := p.Mix
	nonBranch := m.Sum() - m.Branch
	prefix := 0.0
	for k, frac := range [...]float64{m.IntALU, m.IntMul, m.IntDiv, m.FPOp, m.FPDiv, m.Load, m.Store} {
		prefix += frac
		c := prefix
		d.mix[k] = threshold(func(f float64) bool { return f*nonBranch < c })
	}
	d.fpMem = below(0.7)
	for parity := range d.region {
		scale := g.phaseScaleAt(int64(parity) * p.PhaseInstrs)
		coldProb, warmProb := p.ColdProb*scale, p.WarmProb*scale
		d.region[parity].cold = below(coldProb)
		d.region[parity].warm = below(coldProb + warmProb)
	}
	d.hot = newModulus(int64(p.HotBytes))
	d.warm = newModulus(int64(p.WarmBytes))
}

// buildCFG lays out the static basic blocks. Block lengths are sampled
// around 1/branchFraction so the dynamic branch fraction matches the mix.
func (g *Generator) buildCFG() {
	p := g.prof
	meanLen := 1 / p.Mix.Branch
	g.blocks = make([]block, p.CodeBlocks)
	pc := uint64(0x1000)
	for i := range g.blocks {
		// Lengths vary ±50% around the mean, minimum 2 (one body
		// instruction plus the branch).
		l := int(meanLen * (0.5 + g.rng.Float64()))
		if l < 2 {
			l = 2
		}
		g.blocks[i].startPC = pc
		g.blocks[i].length = l
		pc += uint64(l) * 4
	}
	// sampleBias returns one of four biases; search each threshold once.
	taken := make(map[float64]int64, 4)
	for i := range g.blocks {
		bias := g.sampleBias()
		t, ok := taken[bias]
		if !ok {
			t = below(bias)
			taken[bias] = t
		}
		g.blocks[i].taken = t
		g.blocks[i].target = g.sampleTarget(i)
	}
}

// sampleBias draws a static branch bias such that the expected best-case
// prediction accuracy E[max(b, 1-b)] equals the profile's predictability.
func (g *Generator) sampleBias() float64 {
	// With probability q the branch is strongly biased (accuracy ~0.98),
	// otherwise weakly biased (accuracy ~0.62). Solve q for the target.
	const strong, weak = 0.98, 0.62
	q := (g.prof.BranchPredictability - weak) / (strong - weak)
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	var acc float64
	if g.rng.Float64() < q {
		acc = strong
	} else {
		acc = weak
	}
	// Convert accuracy to a bias on either side of 0.5.
	if g.rng.Float64() < 0.5 {
		return acc // mostly taken
	}
	return 1 - acc // mostly not-taken
}

// sampleTarget picks the taken-branch destination for block i: a loop-back
// to a nearby earlier block with probability LoopProb, otherwise a forward
// jump to a random later block.
func (g *Generator) sampleTarget(i int) int {
	n := len(g.blocks)
	if g.rng.Float64() < g.prof.LoopProb {
		back := 1 + g.rng.Intn(8)
		t := i - back
		if t < 0 {
			t = 0
		}
		return t
	}
	fwd := 1 + g.rng.Intn(8)
	return (i + fwd) % n
}

// Next produces the next instruction of the stream.
func (g *Generator) Next() (trace.Instruction, error) {
	if g.remaining == 0 {
		return trace.Instruction{}, io.EOF
	}
	var in trace.Instruction
	g.next(&in)
	if g.remaining > 0 {
		g.remaining--
	}
	return in, nil
}

// NextBatch fills buf with the next instructions of the stream,
// implementing trace.BatchStream. It yields the same instructions as
// repeated calls to Next.
func (g *Generator) NextBatch(buf []trace.Instruction) (int, error) {
	if g.remaining == 0 {
		return 0, io.EOF
	}
	if g.remaining > 0 && int64(len(buf)) > g.remaining {
		buf = buf[:g.remaining]
	}
	for i := range buf {
		g.next(&buf[i])
	}
	if g.remaining > 0 {
		g.remaining -= int64(len(buf))
	}
	return len(buf), nil
}

// next generates one instruction into in; the caller accounts for it
// against the stream's remaining budget.
func (g *Generator) next(in *trace.Instruction) {
	b := &g.blocks[g.cur]
	pc := b.startPC + uint64(g.pos)*4
	if g.pos == b.length-1 {
		g.makeBranch(in, pc, b)
		// Advance control flow.
		if in.Taken {
			g.cur = b.target
		} else if g.cur++; g.cur == len(g.blocks) {
			g.cur = 0
		}
		g.pos = 0
	} else {
		g.makeBody(in, pc)
		g.pos++
	}
	g.produced++
	g.genCount++
	if in.Class.IsMem() {
		g.genMem++
	}
}

// Produced returns the number of instructions generated so far.
func (g *Generator) Produced() int64 { return g.produced }

// Skip discards up to n upcoming instructions in O(1), implementing
// trace.Skipper for systematic sampling. The generator advances its
// position counters — the phase schedule (phaseScale) and the cold-stream
// pointer are driven by absolute trace position, so memory/compute phases
// stay aligned across skips — while the control-flow walk, dependency
// rings, and RNG carry over unchanged: the next window continues the walk
// where the previous one stopped. Restarting the walk at a skip-derived
// random block was tried first and rejected — it destroys the reuse
// structure the I-cache and branch predictor have learned, biasing the
// sampled IPC far below a contiguous run's. No random draws happen during
// a skip, so the post-skip state depends only on the windows actually
// generated, never on how the skip was chunked — sampled runs stay
// bit-reproducible.
func (g *Generator) Skip(n int64) (int64, error) {
	if n <= 0 {
		return 0, nil
	}
	if g.remaining == 0 {
		return 0, io.EOF
	}
	if g.remaining > 0 && n > g.remaining {
		n = g.remaining
	}
	g.produced += n
	if g.remaining > 0 {
		g.remaining -= n
	}
	// Advance the cold-stream pointer as if the skipped instructions had
	// issued their expected share of cold accesses (one line each).
	coldAccesses := float64(n) * (g.prof.Mix.Load + g.prof.Mix.Store) * g.prof.ColdProb
	g.coldPtr += 64 * uint64(coldAccesses)
	return n, nil
}

// SkipWarm discards up to n upcoming instructions like Skip, but replays
// the span's expected memory traffic into w, implementing
// trace.WarmSkipper. Skip keeps cache contents frozen across the gap;
// over long skips that freezes an evolution — the cold stream churning
// the L2, the warm set refreshing its recency — that in a contiguous run
// takes on the order of a million instructions to reach steady state, so
// every window behind the gap observes biased miss rates. SkipWarm drives
// that evolution statistically: each skipped position draws "was this a
// memory access, which region, load or store" from a splitmix64 hash of
// (seed, absolute position) — not from g.rng — and feeds the resulting
// address to w. Position-keyed draws make the replay a pure function of
// which positions were skipped, so chunked and whole-gap skips leave
// bit-identical generator and cache state, preserving Skip's
// reproducibility guarantee. The cold-stream pointer advances per
// replayed cold access (superseding Skip's bulk estimate) so the warmed
// lines and the pointer agree.
func (g *Generator) SkipWarm(n int64, w trace.MemWarmer) (int64, error) {
	if w == nil {
		return g.Skip(n)
	}
	if n <= 0 {
		return 0, nil
	}
	if g.remaining == 0 {
		return 0, io.EOF
	}
	if g.remaining > 0 && n > g.remaining {
		n = g.remaining
	}
	// Replay at the stream's measured dynamic memory-access rate once
	// enough instructions have been observed; the static Mix rate seeds the
	// estimate before that. Within one gap no instructions are generated
	// between chunks, so the rate — like the position-keyed draws — is
	// identical however the gap is chunked.
	memProb := g.prof.Mix.Load + g.prof.Mix.Store
	if g.genCount >= 4096 {
		memProb = float64(g.genMem) / float64(g.genCount)
	}
	var storeProb float64
	if m := g.prof.Mix.Load + g.prof.Mix.Store; m > 0 {
		storeProb = g.prof.Mix.Store / m
	}
	// The replay runs for every skipped instruction, so the draws are
	// integer threshold compares on hash bits rather than float64
	// conversions, and region offsets use a multiply-high (Lemire)
	// reduction rather than a 64-bit modulo. Thresholds for the two phase
	// parities are precomputed; built-in profiles have phases off.
	const unit = 1 << 53
	memThresh := uint64(memProb * unit)
	storeThresh := uint64(storeProb * (1 << 11))
	mkThresh := func(scale float64) (cold, warm uint64) {
		c := g.prof.ColdProb * scale
		return uint64(c * unit), uint64((c + g.prof.WarmProb*scale) * unit)
	}
	coldEven, warmEven := mkThresh(g.phaseScaleAt(0))
	coldOdd, warmOdd := coldEven, warmEven
	if g.prof.PhaseInstrs > 0 {
		coldOdd, warmOdd = mkThresh(g.prof.PhaseMemScale)
	}
	// The replay runs in blocks of skipBlock positions: a first pass hashes
	// every position and compacts the memory accesses without branching on
	// the draw, and a second replays just those, in position order.
	const golden = 0x9e3779b97f4a7c15
	x := uint64(g.prof.Seed) + uint64(g.produced)*golden
	var hits [skipBlock]uint64
	var offs [skipBlock]uint8
	for base := int64(0); base < n; base += skipBlock {
		m := min(n-base, skipBlock)
		k := 0
		for j := range int(m) {
			h := splitmix64(x)
			x += golden
			hits[k&(skipBlock-1)], offs[k&(skipBlock-1)] = h, uint8(j)
			// Both sides are below 2^63, so the difference's sign bit is
			// h>>11 < memThresh.
			k += int((h>>11 - memThresh) >> 63)
		}
		for j, h := range hits[:k] {
			coldT, warmT := coldEven, warmEven
			if g.prof.PhaseInstrs > 0 && ((g.produced+base+int64(offs[j]))/g.prof.PhaseInstrs)&1 == 1 {
				coldT, warmT = coldOdd, warmOdd
			}
			store := h&(1<<11-1) < storeThresh
			h2 := splitmix64(h)
			var addr uint64
			switch r := h2 >> 11; {
			case r < coldT:
				g.coldPtr += 64
				addr = coldBase + g.coldPtr&(1<<30-1)
			case r < warmT:
				hi, _ := bits.Mul64(splitmix64(h2), g.prof.WarmBytes)
				addr = warmBase + hi&^7
			default:
				hi, _ := bits.Mul64(splitmix64(h2), g.prof.HotBytes)
				addr = hotBase + hi&^7
			}
			w.WarmAccess(addr, store)
		}
	}
	g.produced += n
	if g.remaining > 0 {
		g.remaining -= n
	}
	return n, nil
}

// skipBlock is the number of skipped positions SkipWarm hashes per pass;
// a power of two no larger than 256, so an offset fits a byte and a mask
// keeps compaction writes in bounds.
const skipBlock = 256

// splitmix64 is the SplitMix64 finaliser: a bijective mixer cheap enough
// to derive several independent draws per skipped instruction.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (g *Generator) makeBranch(in *trace.Instruction, pc uint64, b *block) {
	*in = trace.Instruction{
		PC:    pc,
		Class: trace.ClassBranch,
		Src1:  g.pickSource(false),
		Taken: g.rng.unit() < b.taken,
	}
	if in.Taken {
		in.Target = g.blocks[b.target].startPC
	}
}

// makeBody samples a non-branch instruction from the mix.
func (g *Generator) makeBody(in *trace.Instruction, pc uint64) {
	v, mix := g.rng.unit(), &g.draw.mix
	switch {
	case v < mix[0]:
		g.makeALU(in, pc, trace.ClassIntALU)
	case v < mix[1]:
		g.makeALU(in, pc, trace.ClassIntMul)
	case v < mix[2]:
		g.makeALU(in, pc, trace.ClassIntDiv)
	case v < mix[3]:
		g.makeFP(in, pc, trace.ClassFPOp)
	case v < mix[4]:
		g.makeFP(in, pc, trace.ClassFPDiv)
	case v < mix[5]:
		g.makeLoad(in, pc)
	case v < mix[6]:
		g.makeStore(in, pc)
	default:
		g.makeLCR(in, pc)
	}
}

func (g *Generator) makeALU(in *trace.Instruction, pc uint64, c trace.Class) {
	*in = trace.Instruction{
		PC:    pc,
		Class: c,
		Src1:  g.pickSource(false),
		Src2:  g.pickSource(false),
		Dest:  g.newDest(false),
	}
}

func (g *Generator) makeFP(in *trace.Instruction, pc uint64, c trace.Class) {
	*in = trace.Instruction{
		PC:    pc,
		Class: c,
		Src1:  g.pickSource(true),
		Src2:  g.pickSource(true),
		Dest:  g.newDest(true),
	}
}

func (g *Generator) makeLoad(in *trace.Instruction, pc uint64) {
	fp := g.prof.Suite == SuiteFP && g.rng.unit() < g.draw.fpMem
	*in = trace.Instruction{
		PC:    pc,
		Class: trace.ClassLoad,
		Addr:  g.dataAddress(),
		Src1:  g.pickSource(false), // address base register
		Dest:  g.newDest(fp),
	}
}

func (g *Generator) makeStore(in *trace.Instruction, pc uint64) {
	fp := g.prof.Suite == SuiteFP && g.rng.unit() < g.draw.fpMem
	*in = trace.Instruction{
		PC:    pc,
		Class: trace.ClassStore,
		Addr:  g.dataAddress(),
		Src1:  g.pickSource(false), // address base register
		Src2:  g.pickSource(fp),    // stored value
	}
}

func (g *Generator) makeLCR(in *trace.Instruction, pc uint64) {
	*in = trace.Instruction{
		PC:    pc,
		Class: trace.ClassLCR,
		Src1:  g.pickSource(false),
		Dest:  g.newDest(false),
	}
}

// phaseScaleAt evaluates the phase schedule at absolute trace position p:
// the multiplier on the warm/cold access probabilities is >1 in the memory
// phase, <1 in the compute phase, and 1 with phases disabled.
func (g *Generator) phaseScaleAt(p int64) float64 {
	if g.prof.PhaseInstrs <= 0 {
		return 1
	}
	if (p/g.prof.PhaseInstrs)%2 == 1 {
		return g.prof.PhaseMemScale
	}
	return 1 / g.prof.PhaseMemScale
}

// Disjoint base addresses of the three-level data-locality model, shared
// by demand generation (dataAddress) and skip-span warming (SkipWarm).
const (
	hotBase  = 0x1000_0000
	warmBase = 0x2000_0000
	coldBase = 0x4000_0000
)

// dataAddress draws an effective address from the three-level locality
// model: hot (L1-resident), warm (L2-resident), or cold (streaming past
// the L2). Regions are disjoint so cache behaviour is controllable.
func (g *Generator) dataAddress() uint64 {
	r := &g.draw.region[0]
	if g.prof.PhaseInstrs > 0 && (g.produced/g.prof.PhaseInstrs)%2 == 1 {
		r = &g.draw.region[1]
	}
	switch v := g.rng.unit(); {
	case v < r.cold:
		// Stream through a region far larger than the L2 in cache-line
		// steps so every access is a fresh line.
		g.coldPtr += 64
		return coldBase + g.coldPtr%(1<<30)
	case v < r.warm:
		return warmBase + uint64(g.rng.Int63n(&g.draw.warm))&^7
	default:
		return hotBase + uint64(g.rng.Int63n(&g.draw.hot))&^7
	}
}

// pickSource chooses a source register: near (recently written, likely
// in flight) with probability NearDepProb, else a stable old value.
func (g *Generator) pickSource(fp bool) uint16 {
	recent, pos, base := &g.recentInt, g.riPos, uint16(_intRegBase)
	if fp {
		recent, pos, base = &g.recentFP, g.rfPos, _fpRegBase
	}
	if g.rng.unit() < g.draw.near {
		// Geometric distance with the profile's mean, capped by the
		// recent-ring size.
		d := g.rng.geometric(g.draw.geoStop, _ringLen)
		return recent[(pos-d)&(_ringLen-1)]
	}
	// Intn(32): a power-of-two bound masks the draw's top 31 bits.
	return base + uint16(int32(g.rng.Int63()>>32)&(_regCount-1))
}

// newDest allocates the next destination register round-robin and records
// it in the recent ring used for dependency construction.
func (g *Generator) newDest(fp bool) uint16 {
	if fp {
		reg := uint16(_fpRegBase + g.rfPos)
		g.recentFP[g.rfPos&(_ringLen-1)] = reg
		g.rfPos = (g.rfPos + 1) & (_regCount - 1)
		return reg
	}
	reg := uint16(_intRegBase + g.riPos)
	g.recentInt[g.riPos&(_ringLen-1)] = reg
	g.riPos = (g.riPos + 1) & (_regCount - 1)
	return reg
}
