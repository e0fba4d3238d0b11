package microarch

import (
	"fmt"
	"math"
)

// Config describes the simulated machine. DefaultConfig returns the paper's
// Table 2 base processor; tests use smaller variants.
type Config struct {
	// FetchWidth is the fetch rate in instructions per cycle.
	FetchWidth int
	// DispatchWidth is the dispatch-group size (instructions renamed and
	// inserted into the window per cycle).
	DispatchWidth int
	// RetireWidth is the retirement rate in instructions per cycle (one
	// dispatch group, max 5, in the POWER4 scheme).
	RetireWidth int
	// IssueWidth is the total issue bandwidth per cycle across all units.
	IssueWidth int
	// ROBSize is the reorder-buffer capacity.
	ROBSize int
	// IntRegs and FPRegs are the physical register-file sizes.
	IntRegs, FPRegs int
	// MemQueueSize is the load/store queue capacity.
	MemQueueSize int
	// Functional-unit counts.
	IntUnits, FPUnits, LSUnits, BranchUnits, LCRUnits int
	// Integer latencies (add also covers logical ops).
	IntAddLat, IntMulLat, IntDivLat int
	// FP latencies.
	FPLat, FPDivLat int
	// FetchToDispatch is the front-end pipeline depth in cycles.
	FetchToDispatch int
	// MispredictPenalty is the extra redirect delay after a mispredicted
	// branch resolves.
	MispredictPenalty int
	// Cache geometry.
	L1I, L1D, L2 CacheConfig
	// Contentionless latencies (Table 2): L1 hit, L2 hit, main memory.
	L1Lat, L2Lat, MemLat int
	// Branch predictor geometry and scheme.
	PredictorBits int // log2 of counter table size
	BTBEntries    int
	PredictorKind PredictorKind // zero value means gshare
	// NextLinePrefetch enables a next-line data prefetcher: every L1 D
	// miss also pulls the following line into the L1 and L2. The Table 2
	// base machine ships without it (the POWER4 data prefetcher is not
	// part of the paper's model); it is provided for sensitivity studies.
	NextLinePrefetch bool
	// FrequencyGHz is the clock used to convert cycles to wall time (and
	// hence to size the 1µs activity intervals).
	FrequencyGHz float64
}

// DefaultConfig returns the base 180nm POWER4-like configuration of
// Table 2.
func DefaultConfig() Config {
	return Config{
		FetchWidth:        8,
		DispatchWidth:     5,
		RetireWidth:       5,
		IssueWidth:        8,
		ROBSize:           150,
		IntRegs:           120,
		FPRegs:            96,
		MemQueueSize:      32,
		IntUnits:          2,
		FPUnits:           2,
		LSUnits:           2,
		BranchUnits:       1,
		LCRUnits:          1,
		IntAddLat:         1,
		IntMulLat:         7,
		IntDivLat:         35,
		FPLat:             4,
		FPDivLat:          12,
		FetchToDispatch:   5,
		MispredictPenalty: 6,
		L1I:               CacheConfig{SizeBytes: 32 << 10, LineBytes: 128, Assoc: 2},
		L1D:               CacheConfig{SizeBytes: 32 << 10, LineBytes: 128, Assoc: 2},
		L2:                CacheConfig{SizeBytes: 2 << 20, LineBytes: 128, Assoc: 8},
		L1Lat:             2,
		L2Lat:             20,
		MemLat:            102,
		PredictorBits:     14,
		BTBEntries:        2048,
		PredictorKind:     PredictorGshare,
		FrequencyGHz:      1.1,
	}
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	positive := []struct {
		name string
		v    int
	}{
		{"FetchWidth", c.FetchWidth},
		{"DispatchWidth", c.DispatchWidth},
		{"RetireWidth", c.RetireWidth},
		{"IssueWidth", c.IssueWidth},
		{"ROBSize", c.ROBSize},
		{"IntRegs", c.IntRegs},
		{"FPRegs", c.FPRegs},
		{"MemQueueSize", c.MemQueueSize},
		{"IntUnits", c.IntUnits},
		{"FPUnits", c.FPUnits},
		{"LSUnits", c.LSUnits},
		{"BranchUnits", c.BranchUnits},
		{"LCRUnits", c.LCRUnits},
		{"IntAddLat", c.IntAddLat},
		{"IntMulLat", c.IntMulLat},
		{"IntDivLat", c.IntDivLat},
		{"FPLat", c.FPLat},
		{"FPDivLat", c.FPDivLat},
		{"L1Lat", c.L1Lat},
		{"L2Lat", c.L2Lat},
		{"MemLat", c.MemLat},
		{"PredictorBits", c.PredictorBits},
		{"BTBEntries", c.BTBEntries},
	}
	for _, p := range positive {
		if p.v <= 0 {
			return fmt.Errorf("microarch: %s must be positive, got %d", p.name, p.v)
		}
	}
	if c.FetchToDispatch < 1 {
		return fmt.Errorf("microarch: FetchToDispatch must be ≥ 1, got %d", c.FetchToDispatch)
	}
	if c.MispredictPenalty < 0 {
		return fmt.Errorf("microarch: MispredictPenalty must be ≥ 0, got %d", c.MispredictPenalty)
	}
	if !(c.FrequencyGHz > 0) {
		return fmt.Errorf("microarch: FrequencyGHz must be positive, got %v", c.FrequencyGHz)
	}
	// Activity is counted per 1µs interval, so an interval needs at least
	// one cycle, and its largest possible count — a full-width stage every
	// cycle, or a full issue width of weight-4 divides — must fit the
	// simulator's 32-bit counters.
	cpu := c.CyclesPerMicrosecond()
	if cpu < 1 {
		return fmt.Errorf("microarch: FrequencyGHz %v gives %d cycles per 1µs interval, need at least 1", c.FrequencyGHz, cpu)
	}
	perCycle := max(c.FetchWidth, c.DispatchWidth, c.RetireWidth, 4*c.IssueWidth)
	if float64(cpu)*float64(perCycle) > math.MaxUint32 {
		return fmt.Errorf("microarch: FrequencyGHz %v with %d events per cycle overflows a 1µs interval's counters", c.FrequencyGHz, perCycle)
	}
	// Register files must cover the architected name space with headroom
	// for in-flight renames.
	if c.IntRegs <= 32 || c.FPRegs <= 32 {
		return fmt.Errorf("microarch: register files must exceed 32 architected registers")
	}
	for _, cc := range []struct {
		name string
		cfg  CacheConfig
	}{{"L1I", c.L1I}, {"L1D", c.L1D}, {"L2", c.L2}} {
		if err := cc.cfg.Validate(); err != nil {
			return fmt.Errorf("microarch: %s: %w", cc.name, err)
		}
	}
	if !(c.L1Lat < c.L2Lat && c.L2Lat < c.MemLat) {
		return fmt.Errorf("microarch: latencies must satisfy L1 < L2 < memory")
	}
	return nil
}

// CyclesPerMicrosecond returns the number of clock cycles in one
// microsecond — the paper's power/temperature/reliability evaluation
// interval.
func (c Config) CyclesPerMicrosecond() int64 {
	return int64(c.FrequencyGHz * 1000)
}

// capacity returns each structure's per-cycle event capacity, used to
// normalise activity factors into [0, 1].
func (c Config) capacity() [NumStructures]float64 {
	var cap [NumStructures]float64
	cap[StructIFU] = float64(c.FetchWidth)
	cap[StructIDU] = float64(c.DispatchWidth)
	cap[StructISU] = float64(c.IssueWidth)
	cap[StructFXU] = float64(c.IntUnits)
	cap[StructFPU] = float64(c.FPUnits)
	cap[StructLSU] = float64(c.LSUnits)
	cap[StructBXU] = float64(c.BranchUnits + c.LCRUnits)
	return cap
}
