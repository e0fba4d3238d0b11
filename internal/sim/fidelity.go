package sim

import (
	"fmt"
	"math"

	"github.com/ramp-sim/ramp/internal/phase"
)

// FidelityMode selects how much of the exact evaluation pipeline a study
// trades for speed. The default (exact) is bit-identical to the historical
// pipeline; the other modes buy cold-study latency with bounded error.
type FidelityMode string

const (
	// FidelityExact runs the full pipeline: every instruction simulated,
	// every 1µs sample integrated individually. Bit-identical to the
	// pre-fidelity pipeline.
	FidelityExact FidelityMode = "exact"
	// FidelityPhase simulates only periodic windows of the instruction
	// stream (systematic sampling, §4.5), phase-compresses the activity
	// trace, weights the compressed phases by occupancy (SimPoint-style),
	// and advances each stationary phase with error-bounded coarse Heun
	// steps (sub-split whenever the local error estimate exceeds
	// ThermalTolK).
	FidelityPhase FidelityMode = "phase"
)

// Default tuning for phase mode. The sampling geometry (a 20k head plus
// a 1/10 window ratio) and thermal tolerance are chosen so the end-to-end
// SOFR MTTF stays within 1% of exact across the built-in profiles (see
// BENCH_coldstudy.json and the accuracy regression test).
const (
	// DefaultThermalTolK is the per-coarse-step local temperature error
	// bound of the coarse thermal integrator, in kelvin.
	DefaultThermalTolK = 0.05
	// DefaultSampleWindowInstrs is the detailed-simulation window length
	// of phase-mode systematic sampling, in instructions. Windows shorter
	// than a few thousand instructions are dominated by the re-sync
	// transient after each statistically warmed gap.
	DefaultSampleWindowInstrs = 10_000
	// DefaultSamplePeriodInstrs is the sampling period: one window is
	// simulated out of every period (ratio 1/10).
	DefaultSamplePeriodInstrs = 100_000
	// DefaultSampleHeadInstrs is the contiguous prefix simulated in full
	// before the window cadence starts. It covers the cold-start
	// transient (compulsory misses, predictor training), which is not
	// stationary behaviour and must carry weight 1 — not the sampled
	// stream's inflated weight — in the time averages downstream.
	DefaultSampleHeadInstrs = 40_000
)

// Fidelity configures the speed/accuracy trade of a study. The zero value
// and a nil pointer both mean exact. It participates in the stage cache
// keys (normalised), so results produced under different fidelity settings
// can never be served for one another.
type Fidelity struct {
	// Mode selects the pipeline variant; empty means FidelityExact.
	Mode FidelityMode `json:"mode,omitempty"`
	// PhaseEpsilonAF is the per-structure activity-factor tolerance of the
	// phase detector (phase mode); 0 means phase.DefaultEpsilonAF.
	PhaseEpsilonAF float64 `json:"phase_epsilon_af,omitempty"`
	// ThermalTolK is the local temperature error bound per coarse step of
	// the coarse integrator, in kelvin; 0 means DefaultThermalTolK.
	ThermalTolK float64 `json:"thermal_tol_k,omitempty"`
	// SampleWindowInstrs, SamplePeriodInstrs, and SampleHeadInstrs
	// configure phase-mode systematic sampling (contiguous head, then one
	// window per period); 0 means the defaults above. Ignored outside
	// phase mode.
	SampleWindowInstrs int64 `json:"sample_window_instrs,omitempty"`
	SamplePeriodInstrs int64 `json:"sample_period_instrs,omitempty"`
	SampleHeadInstrs   int64 `json:"sample_head_instrs,omitempty"`
}

// norm returns the fidelity with every default filled in. A nil receiver
// normalises to exact — callers never need to nil-check.
func (f *Fidelity) norm() Fidelity {
	if f == nil {
		return Fidelity{Mode: FidelityExact}
	}
	out := *f
	if out.Mode == "" {
		out.Mode = FidelityExact
	}
	if out.PhaseEpsilonAF == 0 {
		out.PhaseEpsilonAF = phase.DefaultEpsilonAF
	}
	if out.ThermalTolK == 0 {
		out.ThermalTolK = DefaultThermalTolK
	}
	if out.SampleWindowInstrs == 0 {
		out.SampleWindowInstrs = DefaultSampleWindowInstrs
	}
	if out.SamplePeriodInstrs == 0 {
		out.SamplePeriodInstrs = DefaultSamplePeriodInstrs
	}
	if out.SampleHeadInstrs == 0 {
		out.SampleHeadInstrs = DefaultSampleHeadInstrs
	}
	return out
}

// ModeName is the effective mode label: "exact" unless a mode is set.
// A nil receiver is exact.
func (f *Fidelity) ModeName() string {
	if f == nil || f.Mode == "" {
		return string(FidelityExact)
	}
	return string(f.Mode)
}

// Validate rejects unknown modes and out-of-range tuning. A nil fidelity
// is valid (exact).
func (f *Fidelity) Validate() error {
	if f == nil {
		return nil
	}
	switch f.Mode {
	case "", FidelityExact, FidelityPhase:
	default:
		return fmt.Errorf("sim: unknown fidelity mode %q (want exact or phase)", f.Mode)
	}
	if f.PhaseEpsilonAF < 0 || f.PhaseEpsilonAF > 1 || math.IsNaN(f.PhaseEpsilonAF) {
		return fmt.Errorf("sim: fidelity phase epsilon %v outside [0,1]", f.PhaseEpsilonAF)
	}
	if f.ThermalTolK < 0 || math.IsNaN(f.ThermalTolK) || math.IsInf(f.ThermalTolK, 0) {
		return fmt.Errorf("sim: fidelity thermal tolerance %v must be non-negative and finite", f.ThermalTolK)
	}
	if f.SampleWindowInstrs < 0 || f.SamplePeriodInstrs < 0 || f.SampleHeadInstrs < 0 {
		return fmt.Errorf("sim: fidelity sampling window/period/head must be non-negative")
	}
	if f.SampleWindowInstrs > 0 && f.SamplePeriodInstrs > 0 &&
		f.SampleWindowInstrs > f.SamplePeriodInstrs {
		return fmt.Errorf("sim: fidelity sample window %d exceeds period %d",
			f.SampleWindowInstrs, f.SamplePeriodInstrs)
	}
	return nil
}

// ParseFidelityMode validates a mode name from a flag or API request and
// returns nil for exact/empty — keeping exact-mode configs (and hence
// their content-addressed keys) identical to configs that predate the
// fidelity field.
func ParseFidelityMode(mode string) (*Fidelity, error) {
	switch FidelityMode(mode) {
	case "", FidelityExact:
		return nil, nil
	case FidelityPhase:
		return &Fidelity{Mode: FidelityPhase}, nil
	default:
		return nil, fmt.Errorf("sim: unknown fidelity mode %q (want exact or phase)", mode)
	}
}

// fidelityTimingInputs is the timing stage's view of the fidelity: phase
// mode's systematic sampling changes what the timing stage simulates, so
// phase mode contributes these to TimingKey.
type fidelityTimingInputs struct {
	Mode               FidelityMode `json:"mode"`
	SampleWindowInstrs int64        `json:"sample_window_instrs"`
	SamplePeriodInstrs int64        `json:"sample_period_instrs"`
	SampleHeadInstrs   int64        `json:"sample_head_instrs"`
}

// fidelityThermalInputs is the thermal stage's view of the fidelity:
// phase mode replaces the per-sample transient with phase-compressed
// error-bounded integration, parameterised by the detector epsilon and
// step tolerance.
type fidelityThermalInputs struct {
	Mode           FidelityMode `json:"mode"`
	PhaseEpsilonAF float64      `json:"phase_epsilon_af"`
	ThermalTolK    float64      `json:"thermal_tol_k"`
}

// timingFidelityKeyInputs returns the TimingKey contribution, nil unless
// the mode changes the timing stage's behaviour.
func timingFidelityKeyInputs(f *Fidelity) *fidelityTimingInputs {
	n := f.norm()
	if n.Mode != FidelityPhase {
		return nil
	}
	return &fidelityTimingInputs{
		Mode:               n.Mode,
		SampleWindowInstrs: n.SampleWindowInstrs,
		SamplePeriodInstrs: n.SamplePeriodInstrs,
		SampleHeadInstrs:   n.SampleHeadInstrs,
	}
}

// thermalFidelityKeyInputs returns the ThermalKey contribution, nil for
// exact so pre-fidelity cache keys remain valid.
func thermalFidelityKeyInputs(f *Fidelity) *fidelityThermalInputs {
	n := f.norm()
	if n.Mode == FidelityExact {
		return nil
	}
	return &fidelityThermalInputs{
		Mode:           n.Mode,
		PhaseEpsilonAF: n.PhaseEpsilonAF,
		ThermalTolK:    n.ThermalTolK,
	}
}
