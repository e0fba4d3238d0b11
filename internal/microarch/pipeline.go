package microarch

import (
	"errors"
	"fmt"
	"io"

	"github.com/ramp-sim/ramp/internal/trace"
)

// bwRing is a bandwidth reservation table: it finds, for a requested start
// cycle, the earliest cycle with spare per-cycle capacity. Entries are
// lazily reset by stamping the cycle they describe, so the ring never needs
// clearing. The ring must be longer than the largest spread of in-flight
// reservation cycles (bounded by ROB size × worst-case latency). Issue is
// the one stage that books out of order and needs it; the in-order stages
// use inorderBW.
type bwRing struct {
	counts []int32
	cycles []int64
	limit  int32
}

const _bwRingSize = 1 << 15

func newBWRing(limit int) bwRing {
	return bwRing{
		counts: make([]int32, _bwRingSize),
		cycles: make([]int64, _bwRingSize),
		limit:  int32(limit),
	}
}

// reserve books one slot at the earliest cycle ≥ t with spare capacity and
// returns that cycle.
func (b *bwRing) reserve(t int64) int64 {
	for {
		i := t & (_bwRingSize - 1)
		if b.cycles[i] != t {
			b.cycles[i] = t
			b.counts[i] = 0
		}
		if b.counts[i] < b.limit {
			b.counts[i]++
			return t
		}
		t++
	}
}

// inorderBW is bwRing for a requester whose requests never fall below the
// last cycle it was given — fetch, dispatch and retire, which proceed in
// program order. Then no cycle after the latest booked one holds a
// booking, so that cycle's count is the only state reserve needs, and it
// returns exactly what a bwRing would for the same requests.
type inorderBW struct {
	cur   int64 // latest booked cycle
	n     int32 // bookings at cur
	limit int32
}

func newInorderBW(limit int) inorderBW {
	return inorderBW{limit: int32(limit)}
}

// reserve books one slot at the earliest cycle ≥ t with spare capacity and
// returns that cycle. t must be at least the last cycle returned.
func (b *inorderBW) reserve(t int64) int64 {
	if t == b.cur {
		if b.n < b.limit {
			b.n++
			return t
		}
		t++
	}
	b.cur, b.n = t, 1
	return t
}

// unitPool models a set of interchangeable functional units. Pipelined
// operations occupy a unit for one cycle; non-pipelined operations (the
// divides) occupy it for their full latency.
type unitPool struct {
	free []int64
}

func newUnitPool(n int) unitPool {
	return unitPool{free: make([]int64, n)}
}

// acquire finds a unit for an operation that becomes ready at cycle t and
// occupies its unit for occ cycles. It returns the issue cycle. It prefers
// a unit already idle at t (avoiding false contention from program-order
// reservation), the most recently used one so other units remain free for
// earlier-ready operations; otherwise it waits for the earliest-free unit.
// Ties go to the lowest index.
func (u *unitPool) acquire(t int64, occ int64) int64 {
	idle, idleFree := -1, int64(0)
	early, earlyFree := 0, u.free[0]
	for i, f := range u.free {
		if f <= t {
			if idle < 0 || f > idleFree {
				idle, idleFree = i, f
			}
		} else if f < earlyFree {
			early, earlyFree = i, f
		}
	}
	if idle < 0 {
		// All busy at t.
		idle, t = early, earlyFree
	}
	u.free[idle] = t + occ
	return t
}

// occupancyRing tracks the release times of the last N occupants of a
// structural resource (ROB entries, LSQ slots, physical registers). Slot i
// of the resource is reused by the (i+N)-th allocation, so the constraint
// for a new allocation is the stored release time of the entry it replaces.
type occupancyRing struct {
	release []int64
	pos     int
}

func newOccupancyRing(n int) occupancyRing {
	return occupancyRing{release: make([]int64, n)}
}

// constraint returns the earliest cycle the next allocation may proceed.
func (o *occupancyRing) constraint() int64 {
	return o.release[o.pos]
}

// allocate records the release time of the new occupant.
func (o *occupancyRing) allocate(releaseCycle int64) {
	o.release[o.pos] = releaseCycle
	o.pos++
	if o.pos == len(o.release) {
		o.pos = 0
	}
}

// Simulator executes an instruction trace on the modeled machine.
type Simulator struct {
	cfg  Config
	caps [NumStructures]float64

	l1i, l1d, l2 *Cache
	pred         *Predictor

	regReady [trace.NumArchRegs]int64

	fetchBW    inorderBW
	dispatchBW inorderBW
	issueBW    bwRing
	retireBW   inorderBW

	intUnits, fpUnits, lsUnits, brUnits, lcrUnits unitPool

	rob     occupancyRing
	memq    occupancyRing
	intRegs occupancyRing
	fpRegs  occupancyRing

	fetchHead    int64
	lastDispatch int64
	lastRetire   int64
	lastLine     uint64
	l1iLineShift uint // log2 of the L1I line size: PC >> shift is the line

	batch []trace.Instruction // Run's batch buffer

	cyclesPerUs int64
	intervals   []intervalCounts
	// iv caches the interval holding cycles [ivLo, ivHi), so most events
	// find their interval without a divide. It points into intervals and
	// is re-pointed whenever intervals grows.
	iv         *intervalCounts
	ivLo, ivHi int64

	retired     int64
	branches    int64
	mispredicts int64
}

// NewSimulator builds a simulator for the given machine configuration.
func NewSimulator(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l1i, err := NewCache(cfg.L1I)
	if err != nil {
		return nil, fmt.Errorf("microarch: L1I: %w", err)
	}
	l1d, err := NewCache(cfg.L1D)
	if err != nil {
		return nil, fmt.Errorf("microarch: L1D: %w", err)
	}
	l2, err := NewCache(cfg.L2)
	if err != nil {
		return nil, fmt.Errorf("microarch: L2: %w", err)
	}
	s := &Simulator{
		cfg:          cfg,
		caps:         cfg.capacity(),
		l1i:          l1i,
		l1d:          l1d,
		l2:           l2,
		pred:         NewPredictorKind(predictorKindOrDefault(cfg.PredictorKind), cfg.PredictorBits, cfg.BTBEntries),
		fetchBW:      newInorderBW(cfg.FetchWidth),
		dispatchBW:   newInorderBW(cfg.DispatchWidth),
		issueBW:      newBWRing(cfg.IssueWidth),
		retireBW:     newInorderBW(cfg.RetireWidth),
		intUnits:     newUnitPool(cfg.IntUnits),
		fpUnits:      newUnitPool(cfg.FPUnits),
		lsUnits:      newUnitPool(cfg.LSUnits),
		brUnits:      newUnitPool(cfg.BranchUnits),
		lcrUnits:     newUnitPool(cfg.LCRUnits),
		rob:          newOccupancyRing(cfg.ROBSize),
		memq:         newOccupancyRing(cfg.MemQueueSize),
		intRegs:      newOccupancyRing(cfg.IntRegs - 32),
		fpRegs:       newOccupancyRing(cfg.FPRegs - 32),
		cyclesPerUs:  cfg.CyclesPerMicrosecond(),
		lastLine:     ^uint64(0),
		l1iLineShift: uint(log2(uint64(cfg.L1I.LineBytes))),
		batch:        make([]trace.Instruction, trace.BatchLen),
	}
	return s, nil
}

// Run consumes the stream to completion (or the first error) and returns
// the aggregated result. Instructions are pulled in batches of
// trace.BatchLen into a buffer the simulator keeps.
func (s *Simulator) Run(stream trace.Stream) (Result, error) {
	src := trace.Batched(stream)
	for {
		n, err := src.NextBatch(s.batch)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return Result{}, fmt.Errorf("microarch: trace error after %d instructions: %w", s.retired, err)
		}
		for i := range s.batch[:n] {
			s.step(&s.batch[i])
		}
	}
	return s.result(), nil
}

// WarmAccess replays one sampled-out memory access through the data
// hierarchy, implementing trace.MemWarmer for systematic sampling. It
// mirrors the demand path's cache-content effects — L1D lookup, L2 on an
// L1D miss, the next-line prefetch loads trigger — without touching the
// demand statistics or consuming pipeline time, so the caches evolve as if
// the skipped span had executed while the activity samples keep describing
// only the instructions actually simulated.
func (s *Simulator) WarmAccess(addr uint64, store bool) {
	if s.l1d.Warm(addr) {
		return
	}
	s.l2.Warm(addr)
	if !store && s.cfg.NextLinePrefetch {
		next := addr + uint64(s.cfg.L1D.LineBytes)
		s.l1d.Prefetch(next)
		s.l2.Prefetch(next)
	}
}

// step advances the model by one instruction, computing its fetch,
// dispatch, issue, completion, and retirement cycles under all structural
// constraints, and accumulating activity events.
func (s *Simulator) step(in *trace.Instruction) {
	cfg := &s.cfg

	// ---- Fetch: in-order, bandwidth-limited, I-cache latency on new lines.
	fetchT := s.fetchHead
	line := in.PC >> s.l1iLineShift
	if line != s.lastLine {
		s.lastLine = line
		if !s.l1i.Access(in.PC) {
			if s.l2.Access(in.PC) {
				fetchT += int64(cfg.L2Lat)
			} else {
				fetchT += int64(cfg.MemLat)
			}
		}
	}
	fetchT = s.fetchBW.reserve(fetchT)
	s.fetchHead = fetchT
	s.interval(fetchT).events[StructIFU]++

	// ---- Dispatch: in-order, group width, window/queue/register occupancy.
	dispT := fetchT + int64(cfg.FetchToDispatch)
	if dispT < s.lastDispatch {
		dispT = s.lastDispatch
	}
	if c := s.rob.constraint(); c+1 > dispT {
		dispT = c + 1
	}
	if in.Class.IsMem() {
		if c := s.memq.constraint(); c+1 > dispT {
			dispT = c + 1
		}
	}
	destFP := in.Dest != trace.RegNone && in.Dest >= 128
	destInt := in.Dest != trace.RegNone && in.Dest < 128
	if destInt {
		if c := s.intRegs.constraint(); c+1 > dispT {
			dispT = c + 1
		}
	}
	if destFP {
		if c := s.fpRegs.constraint(); c+1 > dispT {
			dispT = c + 1
		}
	}
	dispT = s.dispatchBW.reserve(dispT)
	s.lastDispatch = dispT
	s.interval(dispT).events[StructIDU]++

	// ---- Ready: all source operands produced.
	ready := dispT + 1
	if in.Src1 != trace.RegNone && s.regReady[in.Src1] > ready {
		ready = s.regReady[in.Src1]
	}
	if in.Src2 != trace.RegNone && s.regReady[in.Src2] > ready {
		ready = s.regReady[in.Src2]
	}

	// ---- Issue and execute. Each class books its unit pool and one issue
	// slot, and records weight events on its structure.
	var issueT, completeT int64
	unit, weight := StructFXU, uint32(1)
	switch in.Class {
	case trace.ClassIntALU:
		issueT = s.issueBW.reserve(s.intUnits.acquire(ready, 1))
		completeT = issueT + int64(cfg.IntAddLat)
	case trace.ClassIntMul:
		issueT = s.issueBW.reserve(s.intUnits.acquire(ready, 1))
		completeT = issueT + int64(cfg.IntMulLat)
		weight = 2
	case trace.ClassIntDiv:
		occ := int64(cfg.IntDivLat)
		issueT = s.issueBW.reserve(s.intUnits.acquire(ready, occ))
		completeT = issueT + occ
		weight = 4
	case trace.ClassFPOp:
		issueT = s.issueBW.reserve(s.fpUnits.acquire(ready, 1))
		completeT = issueT + int64(cfg.FPLat)
		unit = StructFPU
	case trace.ClassFPDiv:
		occ := int64(cfg.FPDivLat)
		issueT = s.issueBW.reserve(s.fpUnits.acquire(ready, occ))
		completeT = issueT + occ
		unit, weight = StructFPU, 3
	case trace.ClassLoad:
		issueT = s.issueBW.reserve(s.lsUnits.acquire(ready, 1))
		lat := int64(cfg.L1Lat)
		if !s.l1d.Access(in.Addr) {
			if s.l2.Access(in.Addr) {
				lat = int64(cfg.L2Lat)
			} else {
				lat = int64(cfg.MemLat)
			}
			if cfg.NextLinePrefetch {
				next := in.Addr + uint64(cfg.L1D.LineBytes)
				s.l1d.Prefetch(next)
				s.l2.Prefetch(next)
			}
		}
		completeT = issueT + lat
		unit = StructLSU
	case trace.ClassStore:
		issueT = s.issueBW.reserve(s.lsUnits.acquire(ready, 1))
		// Stores complete into the store queue at L1 latency; the line is
		// allocated (write-allocate) for cache-content fidelity.
		if !s.l1d.Access(in.Addr) {
			s.l2.Access(in.Addr)
		}
		completeT = issueT + int64(cfg.L1Lat)
		unit = StructLSU
	case trace.ClassBranch:
		issueT = s.issueBW.reserve(s.brUnits.acquire(ready, 1))
		completeT = issueT + 1
		unit = StructBXU
		s.branches++
		if !s.pred.PredictAndUpdate(in.PC, in.Taken, in.Target) {
			s.mispredicts++
			// Redirect: younger instructions fetch after resolution.
			redirect := completeT + int64(cfg.MispredictPenalty)
			if redirect > s.fetchHead {
				s.fetchHead = redirect
			}
		}
	case trace.ClassLCR:
		issueT = s.issueBW.reserve(s.lcrUnits.acquire(ready, 1))
		completeT = issueT + 1
		unit = StructBXU
	default:
		// Unknown classes execute as single-cycle integer ops.
		issueT = s.issueBW.reserve(s.intUnits.acquire(ready, 1))
		completeT = issueT + 1
	}
	iv := s.interval(issueT)
	iv.events[unit] += weight
	iv.events[StructISU]++

	if in.Dest != trace.RegNone {
		s.regReady[in.Dest] = completeT
	}

	// ---- Retire: in-order, group width.
	retT := completeT + 1
	if retT < s.lastRetire {
		retT = s.lastRetire
	}
	retT = s.retireBW.reserve(retT)
	s.lastRetire = retT
	s.retired++
	s.interval(retT).retired++

	// ---- Release structural resources at retirement.
	s.rob.allocate(retT)
	if in.Class.IsMem() {
		s.memq.allocate(retT)
	}
	if destInt {
		s.intRegs.allocate(retT)
	}
	if destFP {
		s.fpRegs.allocate(retT)
	}
}

// intervalCounts holds the raw event counts of one 1µs interval: weighted
// events per structure and retired instructions. Validate bounds the
// interval length so no count can overflow.
type intervalCounts struct {
	events  [NumStructures]uint32
	retired uint32
}

// interval returns the counts of the 1µs interval that contains cycle.
func (s *Simulator) interval(cycle int64) *intervalCounts {
	if cycle >= s.ivLo && cycle < s.ivHi {
		return s.iv
	}
	return s.seekInterval(cycle)
}

// seekInterval points the interval cache at the interval that contains
// cycle, growing the interval list to reach it.
func (s *Simulator) seekInterval(cycle int64) *intervalCounts {
	idx := cycle / s.cyclesPerUs
	for int64(len(s.intervals)) <= idx {
		s.intervals = append(s.intervals, intervalCounts{})
	}
	s.iv = &s.intervals[idx]
	s.ivLo = idx * s.cyclesPerUs
	s.ivHi = s.ivLo + s.cyclesPerUs
	return s.iv
}

// result finalises interval activity factors and whole-run statistics.
// Event weights are integers, so the counts equal the float sums of the
// events they record, and each activity factor is the same float division
// of that sum by capacity × cycles.
func (s *Simulator) result() Result {
	totalCycles := s.lastRetire + 1
	// Trim trailing intervals beyond the retirement horizon and normalise
	// event counts into activity factors.
	nIntervals := int(totalCycles / s.cyclesPerUs)
	if totalCycles%s.cyclesPerUs != 0 {
		nIntervals++
	}
	if nIntervals > len(s.intervals) {
		nIntervals = len(s.intervals)
	}
	samples := make([]ActivitySample, nIntervals)
	for i := range samples {
		cyc := s.cyclesPerUs
		if i == len(samples)-1 {
			if rem := totalCycles - int64(i)*s.cyclesPerUs; rem > 0 && rem < cyc {
				cyc = rem
			}
		}
		c := &s.intervals[i]
		samples[i].Cycles = cyc
		samples[i].Retired = int64(c.retired)
		for st := 0; st < NumStructures; st++ {
			samples[i].AF[st] = min(float64(c.events[st])/(s.caps[st]*float64(cyc)), 1)
		}
	}
	res := Result{
		Instructions: s.retired,
		Cycles:       totalCycles,
		Samples:      samples,
		Branches:     s.branches,
		Mispredicts:  s.mispredicts,
		L1IAccesses:  s.l1i.Accesses(),
		L1IMisses:    s.l1i.Misses(),
		L1DAccesses:  s.l1d.Accesses(),
		L1DMisses:    s.l1d.Misses(),
		L2Accesses:   s.l2.Accesses(),
		L2Misses:     s.l2.Misses(),
	}
	var total [NumStructures]uint64
	for i := range s.intervals {
		for st, n := range s.intervals[i].events {
			total[st] += uint64(n)
		}
	}
	for st := 0; st < NumStructures; st++ {
		res.AvgAF[st] = min(float64(total[st])/(s.caps[st]*float64(totalCycles)), 1)
	}
	return res
}

// predictorKindOrDefault maps the zero value to gshare so older configs
// keep working.
func predictorKindOrDefault(k PredictorKind) PredictorKind {
	if k == 0 {
		return PredictorGshare
	}
	return k
}

// log2 returns floor(log2(x)) for x > 0.
func log2(x uint64) int {
	n := 0
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}
