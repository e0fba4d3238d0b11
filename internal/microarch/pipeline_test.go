package microarch

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/ramp-sim/ramp/internal/trace"
)

// run simulates instrs on cfg and returns the result.
func run(t *testing.T, cfg Config, instrs []trace.Instruction) Result {
	t.Helper()
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(trace.NewSliceStream(instrs))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// loopPC maps instruction index i onto a looping code footprint so the
// I-cache warms up after the first iteration, as it would for real loop
// code. footprint is in instructions.
func loopPC(i, footprint int) uint64 {
	return uint64(0x1000 + 4*(i%footprint))
}

// aluStream builds n independent single-cycle integer ops, alternating
// destinations so no dependence chains form, on a loop-resident footprint.
func aluStream(n int) []trace.Instruction {
	out := make([]trace.Instruction, n)
	for i := range out {
		out[i] = trace.Instruction{
			PC:    loopPC(i, 256),
			Class: trace.ClassIntALU,
			Dest:  uint16(1 + i%16),
		}
	}
	return out
}

func TestDefaultConfigIsValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidateRejections(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero fetch width", func(c *Config) { c.FetchWidth = 0 }},
		{"zero rob", func(c *Config) { c.ROBSize = 0 }},
		{"negative penalty", func(c *Config) { c.MispredictPenalty = -1 }},
		{"zero frequency", func(c *Config) { c.FrequencyGHz = 0 }},
		{"sub-cycle interval", func(c *Config) { c.FrequencyGHz = 0.0005 }},
		{"NaN frequency", func(c *Config) { c.FrequencyGHz = math.NaN() }},
		{"infinite frequency", func(c *Config) { c.FrequencyGHz = math.Inf(1) }},
		{"interval counter overflow", func(c *Config) { c.FrequencyGHz = 1e6 }},
		{"regs too small", func(c *Config) { c.IntRegs = 32 }},
		{"bad cache", func(c *Config) { c.L1D.SizeBytes = 1000 }},
		{"latency order", func(c *Config) { c.MemLat = 1 }},
		{"zero fetch-to-dispatch", func(c *Config) { c.FetchToDispatch = 0 }},
	}
	for _, tt := range mutations {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestNewSimulatorRejectsInvalidConfig(t *testing.T) {
	var cfg Config
	if _, err := NewSimulator(cfg); err == nil {
		t.Fatal("zero config must be rejected")
	}
}

func TestStructureNames(t *testing.T) {
	if NumStructures != 7 {
		t.Fatalf("NumStructures = %d, want 7 (paper §4.3)", NumStructures)
	}
	if StructIFU.String() != "IFU" || StructBXU.String() != "BXU" {
		t.Fatal("structure names wrong")
	}
	if StructureID(99).String() != "structure(99)" {
		t.Fatal("out-of-range name wrong")
	}
	if len(Structures()) != NumStructures {
		t.Fatal("Structures() length wrong")
	}
}

func TestIndependentALUThroughputBoundedByIntUnits(t *testing.T) {
	// With 2 integer units, an all-ALU trace cannot exceed IPC 2 and a
	// healthy model should get close to it.
	res := run(t, DefaultConfig(), aluStream(20000))
	if ipc := res.IPC(); ipc > 2.01 || ipc < 1.6 {
		t.Fatalf("all-ALU IPC = %.3f, want in (1.6, 2.0]", ipc)
	}
}

func TestDependencyChainSerialises(t *testing.T) {
	// Each op reads the previous op's destination: IPC ≈ 1 with 1-cycle
	// latency ops.
	n := 10000
	instrs := make([]trace.Instruction, n)
	for i := range instrs {
		instrs[i] = trace.Instruction{
			PC:    loopPC(i, 256),
			Class: trace.ClassIntALU,
			Dest:  1,
			Src1:  1,
		}
	}
	res := run(t, DefaultConfig(), instrs)
	if ipc := res.IPC(); ipc > 1.05 || ipc < 0.85 {
		t.Fatalf("chain IPC = %.3f, want ≈ 1", ipc)
	}
}

func TestDivideChainLatency(t *testing.T) {
	// A chain of dependent 35-cycle divides: IPC ≈ 1/35.
	n := 2000
	instrs := make([]trace.Instruction, n)
	for i := range instrs {
		instrs[i] = trace.Instruction{
			PC:    loopPC(i, 256),
			Class: trace.ClassIntDiv,
			Dest:  1,
			Src1:  1,
		}
	}
	res := run(t, DefaultConfig(), instrs)
	want := 1.0 / 35
	if ipc := res.IPC(); ipc > want*1.15 || ipc < want*0.85 {
		t.Fatalf("divide-chain IPC = %.4f, want ≈ %.4f", ipc, want)
	}
}

func TestMixedWorkloadExceedsSingleUnitClassBound(t *testing.T) {
	// Interleaving INT, FP, load, and branch work spreads across unit
	// classes, so IPC should exceed the 2.0 all-ALU bound.
	var instrs []trace.Instruction
	for i := 0; i < 4000; i++ {
		j := 0
		add := func(in trace.Instruction) {
			in.PC = loopPC(i*6+j, 384)
			j++
			instrs = append(instrs, in)
		}
		add(trace.Instruction{Class: trace.ClassIntALU, Dest: uint16(1 + i%8)})
		add(trace.Instruction{Class: trace.ClassIntALU, Dest: uint16(9 + i%8)})
		add(trace.Instruction{Class: trace.ClassFPOp, Dest: uint16(128 + i%8)})
		add(trace.Instruction{Class: trace.ClassFPOp, Dest: uint16(136 + i%8)})
		add(trace.Instruction{Class: trace.ClassLoad, Addr: 0x1000_0000 + uint64(i%64)*8, Dest: uint16(17 + i%8)})
		add(trace.Instruction{Class: trace.ClassLCR, Dest: 30})
	}
	res := run(t, DefaultConfig(), instrs)
	if ipc := res.IPC(); ipc < 2.5 {
		t.Fatalf("mixed IPC = %.3f, want ≥ 2.5", ipc)
	}
}

func TestRetireWidthCapsIPC(t *testing.T) {
	// IPC can never exceed the retirement width.
	var instrs []trace.Instruction
	k := 0
	for i := 0; i < 6000; i++ {
		for _, c := range []trace.Class{
			trace.ClassIntALU, trace.ClassIntALU, trace.ClassFPOp,
			trace.ClassFPOp, trace.ClassLCR, trace.ClassBranch,
		} {
			in := trace.Instruction{PC: loopPC(k, 384), Class: c}
			k++
			if c == trace.ClassBranch {
				in.Taken = false
			} else if c.IsFP() {
				in.Dest = uint16(128 + i%16)
			} else {
				in.Dest = uint16(1 + i%16)
			}
			instrs = append(instrs, in)
		}
	}
	res := run(t, DefaultConfig(), instrs)
	if ipc := res.IPC(); ipc > float64(DefaultConfig().RetireWidth)+0.01 {
		t.Fatalf("IPC %.3f exceeds retire width", ipc)
	}
}

func TestColdMemoryLoadsSlowExecution(t *testing.T) {
	cfg := DefaultConfig()
	mk := func(addr func(i int) uint64) []trace.Instruction {
		instrs := make([]trace.Instruction, 5000)
		for i := range instrs {
			instrs[i] = trace.Instruction{
				PC:    loopPC(i, 256),
				Class: trace.ClassLoad,
				Addr:  addr(i),
				Dest:  uint16(1 + i%16),
				Src1:  uint16(1 + (i+8)%16), // depend on an older load
			}
		}
		return instrs
	}
	// Hot: a 4KB working set that loops, so everything hits the L1 after
	// warm-up. Cold: every access touches a fresh line past the L2.
	hot := run(t, cfg, mk(func(i int) uint64 { return 0x1000_0000 + uint64(i%512)*8 }))
	cold := run(t, cfg, mk(func(i int) uint64 { return 0x4000_0000 + uint64(i)*65536 }))
	if hot.IPC() <= cold.IPC()*2 {
		t.Fatalf("hot IPC %.3f vs cold IPC %.3f: cache misses must hurt", hot.IPC(), cold.IPC())
	}
	if cold.L1DMissRate() < 0.95 {
		t.Fatalf("cold L1D miss rate = %.3f, want ≈ 1", cold.L1DMissRate())
	}
	if cold.L2MissRate() < 0.95 {
		t.Fatalf("cold L2 miss rate = %.3f, want ≈ 1", cold.L2MissRate())
	}
}

func TestMispredictsReduceIPC(t *testing.T) {
	cfg := DefaultConfig()
	mk := func(pattern func(i int) bool) []trace.Instruction {
		// A single static loop: two ALU ops and a backward branch whose
		// direction follows the given pattern. The static branch PC lets
		// the BTB and direction tables train as they would on real code.
		var instrs []trace.Instruction
		const base = uint64(0x1000)
		for i := 0; i < 8000; i++ {
			instrs = append(instrs,
				trace.Instruction{PC: base, Class: trace.ClassIntALU, Dest: uint16(1 + i%8)},
				trace.Instruction{PC: base + 4, Class: trace.ClassIntALU, Dest: uint16(9 + i%8)},
			)
			taken := pattern(i)
			br := trace.Instruction{PC: base + 8, Class: trace.ClassBranch, Taken: taken}
			if taken {
				br.Target = base
			}
			instrs = append(instrs, br)
		}
		return instrs
	}
	predictable := run(t, cfg, mk(func(i int) bool { return true }))
	// An LCG-driven pseudo-random direction defeats the predictor.
	state := uint64(12345)
	hostile := run(t, cfg, mk(func(i int) bool {
		state = state*6364136223846793005 + 1442695040888963407
		return state>>63 == 1
	}))
	if predictable.MispredictRate() > 0.05 {
		t.Fatalf("predictable mispredict rate = %.3f", predictable.MispredictRate())
	}
	if hostile.MispredictRate() < 0.3 {
		t.Fatalf("hostile mispredict rate = %.3f, want ≥ 0.3", hostile.MispredictRate())
	}
	if predictable.IPC() <= hostile.IPC() {
		t.Fatalf("predictable IPC %.3f must exceed hostile IPC %.3f",
			predictable.IPC(), hostile.IPC())
	}
}

func TestActivityFactorsWithinBounds(t *testing.T) {
	res := run(t, DefaultConfig(), aluStream(50000))
	if len(res.Samples) == 0 {
		t.Fatal("no activity samples produced")
	}
	for i, s := range res.Samples {
		if s.Cycles <= 0 {
			t.Fatalf("sample %d has %d cycles", i, s.Cycles)
		}
		for st := 0; st < NumStructures; st++ {
			if s.AF[st] < 0 || s.AF[st] > 1 {
				t.Fatalf("sample %d structure %v AF = %v", i, StructureID(st), s.AF[st])
			}
		}
	}
	for st := 0; st < NumStructures; st++ {
		if res.AvgAF[st] < 0 || res.AvgAF[st] > 1 {
			t.Fatalf("AvgAF[%v] = %v", StructureID(st), res.AvgAF[st])
		}
	}
	// An all-integer workload exercises FXU but not FPU.
	if res.AvgAF[StructFXU] < 0.5 {
		t.Errorf("FXU AvgAF = %v, want high for ALU-only work", res.AvgAF[StructFXU])
	}
	if res.AvgAF[StructFPU] != 0 {
		t.Errorf("FPU AvgAF = %v, want 0 for ALU-only work", res.AvgAF[StructFPU])
	}
}

func TestSampleCyclesSumMatchesTotal(t *testing.T) {
	res := run(t, DefaultConfig(), aluStream(30000))
	var sum int64
	for _, s := range res.Samples {
		sum += s.Cycles
	}
	if sum != res.Cycles {
		t.Fatalf("sample cycles sum %d != total cycles %d", sum, res.Cycles)
	}
}

func TestRetiredSumMatchesInstructionCount(t *testing.T) {
	res := run(t, DefaultConfig(), aluStream(12345))
	var sum int64
	for _, s := range res.Samples {
		sum += s.Retired
	}
	if sum != res.Instructions || res.Instructions != 12345 {
		t.Fatalf("retired sum %d, Instructions %d, want 12345", sum, res.Instructions)
	}
}

func TestEmptyTrace(t *testing.T) {
	res := run(t, DefaultConfig(), nil)
	if res.Instructions != 0 {
		t.Fatalf("Instructions = %d, want 0", res.Instructions)
	}
	if res.IPC() != 0 {
		t.Fatalf("IPC of empty run = %v", res.IPC())
	}
}

func TestROBLimitsInFlightWindow(t *testing.T) {
	// One load that misses to memory followed by dependent-free ALU work:
	// with a small ROB the machine stalls behind the load; with a large
	// ROB it keeps retiring. Compare windows.
	mk := func() []trace.Instruction {
		var instrs []trace.Instruction
		k := 0
		for b := 0; b < 50; b++ {
			instrs = append(instrs, trace.Instruction{
				PC: loopPC(k, 201), Class: trace.ClassLoad,
				Addr: 0x4000_0000 + uint64(b)*131072,
				Dest: 20,
			})
			k++
			for i := 0; i < 200; i++ {
				instrs = append(instrs, trace.Instruction{
					PC: loopPC(k, 201), Class: trace.ClassIntALU, Dest: uint16(1 + i%8),
				})
				k++
			}
		}
		return instrs
	}
	small := DefaultConfig()
	small.ROBSize = 16
	large := DefaultConfig()
	large.ROBSize = 512
	resSmall := run(t, small, mk())
	resLarge := run(t, large, mk())
	if resLarge.IPC() <= resSmall.IPC() {
		t.Fatalf("large ROB IPC %.3f must exceed small ROB IPC %.3f",
			resLarge.IPC(), resSmall.IPC())
	}
}

func TestCyclesPerMicrosecond(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.CyclesPerMicrosecond(); got != 1100 {
		t.Fatalf("CyclesPerMicrosecond = %d, want 1100 at 1.1GHz", got)
	}
}

func TestBWRingRespectsLimit(t *testing.T) {
	r := newBWRing(3)
	times := make(map[int64]int)
	for i := 0; i < 10; i++ {
		times[r.reserve(100)]++
	}
	if times[100] != 3 || times[101] != 3 || times[102] != 3 || times[103] != 1 {
		t.Fatalf("reservation spread wrong: %v", times)
	}
}

func TestUnitPoolNonPipelinedOccupancy(t *testing.T) {
	u := newUnitPool(1)
	t0 := u.acquire(10, 35)
	if t0 != 10 {
		t.Fatalf("first acquire at %d, want 10", t0)
	}
	t1 := u.acquire(12, 35)
	if t1 != 45 {
		t.Fatalf("second acquire at %d, want 45 (unit busy until then)", t1)
	}
}

func TestUnitPoolPrefersIdleUnit(t *testing.T) {
	u := newUnitPool(2)
	if got := u.acquire(5, 1); got != 5 {
		t.Fatalf("acquire = %d, want 5", got)
	}
	if got := u.acquire(5, 1); got != 5 {
		t.Fatalf("second unit acquire = %d, want 5", got)
	}
	if got := u.acquire(5, 1); got != 6 {
		t.Fatalf("third acquire = %d, want 6 (both busy at 5)", got)
	}
}

// TestInorderBWMatchesRing drives an inorderBW and a bwRing with the same
// nondecreasing requests — mostly repeats of the last granted cycle, which
// saturate it, plus short steps and jumps past the ring's length — and
// requires the same granted cycles.
func TestInorderBWMatchesRing(t *testing.T) {
	steps := []int64{0, 0, 0, 0, 1, 2, 7, _bwRingSize + 3}
	for limit := 1; limit <= 8; limit++ {
		rng := rand.New(rand.NewSource(int64(limit)))
		in, ring := newInorderBW(limit), newBWRing(limit)
		var last int64
		for i := 0; i < 100_000; i++ {
			req := last + steps[rng.Intn(len(steps))]
			got, want := in.reserve(req), ring.reserve(req)
			if got != want {
				t.Fatalf("limit %d request %d at %d: granted %d, want %d", limit, i, req, got, want)
			}
			last = got
		}
	}
}

// acquireTwoPass is unitPool.acquire as two scans: latest idle unit first,
// else the earliest-free unit, lowest index on ties.
func acquireTwoPass(free []int64, t, occ int64) int64 {
	best := -1
	for i, f := range free {
		if f <= t && (best == -1 || f > free[best]) {
			best = i
		}
	}
	if best == -1 {
		best = 0
		for i, f := range free {
			if f < free[best] {
				best = i
			}
		}
		t = free[best]
	}
	free[best] = t + occ
	return t
}

func TestUnitPoolTieBreaks(t *testing.T) {
	cases := []struct {
		name       string
		free       []int64
		t          int64
		wantIssue  int64
		wantFreeAt []int64
	}{
		{"equal idle frees take the first", []int64{3, 3, 1}, 5, 5, []int64{6, 3, 1}},
		{"latest idle beats an earlier idle", []int64{1, 4, 4}, 5, 5, []int64{1, 6, 4}},
		{"equal earliest frees take the first", []int64{9, 7, 7}, 5, 7, []int64{9, 8, 7}},
		{"idle unit beats a busy lower index", []int64{9, 2}, 5, 5, []int64{9, 6}},
		{"unit free exactly at t is idle", []int64{8, 5}, 5, 5, []int64{8, 6}},
	}
	for _, tc := range cases {
		u := unitPool{free: append([]int64(nil), tc.free...)}
		if got := u.acquire(tc.t, 1); got != tc.wantIssue {
			t.Errorf("%s: issue %d, want %d", tc.name, got, tc.wantIssue)
		}
		if !slices.Equal(u.free, tc.wantFreeAt) {
			t.Errorf("%s: free %v, want %v", tc.name, u.free, tc.wantFreeAt)
		}
	}
	// Random pools with many ties against the two-scan form.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		u := newUnitPool(1 + rng.Intn(4))
		for j := range u.free {
			u.free[j] = int64(rng.Intn(6))
		}
		ref := append([]int64(nil), u.free...)
		req, occ := int64(rng.Intn(6)), int64(1+rng.Intn(3))
		before := append([]int64(nil), u.free...)
		if got, want := u.acquire(req, occ), acquireTwoPass(ref, req, occ); got != want || !slices.Equal(u.free, ref) {
			t.Fatalf("pool %v acquire(%d, %d): issue %d free %v, want %d free %v",
				before, req, occ, got, u.free, want, ref)
		}
	}
}

// TestSimulatorFootprint bounds what a default simulator allocates up
// front; every concurrent timing stage holds one.
func TestSimulatorFootprint(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sim, err := NewSimulator(DefaultConfig())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(sim)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("NewSimulator allocated %d bytes", got)
	if got > 1<<20 {
		t.Fatalf("NewSimulator allocated %d bytes, want at most 1 MiB", got)
	}
}

func TestOccupancyRing(t *testing.T) {
	r := newOccupancyRing(2)
	if r.constraint() != 0 {
		t.Fatal("fresh ring must not constrain")
	}
	r.allocate(100)
	r.allocate(200)
	if r.constraint() != 100 {
		t.Fatalf("constraint = %d, want 100 (oldest entry)", r.constraint())
	}
	r.allocate(300)
	if r.constraint() != 200 {
		t.Fatalf("constraint = %d, want 200", r.constraint())
	}
}
