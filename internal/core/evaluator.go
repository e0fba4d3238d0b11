package core

import (
	"encoding/json"
	"fmt"
	"sort"

	"github.com/ramp-sim/ramp/internal/microarch"
	"github.com/ramp-sim/ramp/internal/phys"
	"github.com/ramp-sim/ramp/internal/scaling"
)

// Constants holds the per-mechanism proportionality constants that anchor
// the relative rates of the mechanism models to absolute FIT values. They
// come out of the reliability-qualification calibration (§4.4) and are
// reused unchanged at every technology point. The paper's four live in
// the fixed K array; mechanisms selected from the registry beyond them
// land in the name-keyed Extra map (omitted when empty, so default-set
// constants marshal byte-identically to pre-registry releases).
type Constants struct {
	K [NumMechanisms]float64
	// Extra holds constants of registry mechanisms outside the paper's
	// four, keyed by canonical mechanism name.
	Extra map[string]float64 `json:"Extra,omitempty"`
}

// UnitConstants returns all-ones constants, used during calibration.
func UnitConstants() Constants {
	var c Constants
	for i := range c.K {
		c.K[i] = 1
	}
	return c
}

// ExtraK returns the constant for a name-keyed mechanism, defaulting to 1
// (unit constant) when the mechanism was never calibrated.
func (c Constants) ExtraK(name string) float64 {
	if k, ok := c.Extra[name]; ok {
		return k
	}
	return 1
}

// ReferenceConstants returns the qualification constants solved by the
// §4.4 calibration with the default configuration (Table 2 machine, all 16
// benchmarks, 2M instructions each): suite-average 1000 FIT per mechanism
// at 180nm. Use these for absolute FIT values when evaluating single
// applications without re-running the full study; any change to the
// machine, power, thermal, or mechanism parameters requires re-calibration
// through RunStudy.
func ReferenceConstants() Constants {
	return Constants{K: [NumMechanisms]float64{
		EM:   4.055501e+15,
		SM:   3.621072e+10,
		TDDB: 9.648252e+06,
		TC:   3.268192e-01,
	}}
}

// Validate checks that all constants are positive.
func (c Constants) Validate() error {
	for i, k := range c.K {
		if k <= 0 {
			return fmt.Errorf("core: constant for %v must be positive, got %v", Mechanism(i), k)
		}
	}
	for name, k := range c.Extra {
		if k <= 0 {
			return fmt.Errorf("core: constant for %s must be positive, got %v", name, k)
		}
	}
	return nil
}

// Calibrate solves the proportionality constants from the suite-average
// raw (unit-constant) FIT of each mechanism at the 180nm base point, such
// that each mechanism contributes perMechanismFIT on average — the paper
// uses 1000 FIT per mechanism for a 4000-FIT, ≈30-year processor (§4.4).
//
// Calibrate covers only the paper's four fixed-slot mechanisms; studies
// over registry-selected sets use CalibrateSet.
func Calibrate(rawSuiteAvg [NumMechanisms]float64, perMechanismFIT float64) (Constants, error) {
	if perMechanismFIT <= 0 {
		return Constants{}, fmt.Errorf("core: target FIT must be positive, got %v", perMechanismFIT)
	}
	var c Constants
	for i, raw := range rawSuiteAvg {
		if raw <= 0 {
			return Constants{}, fmt.Errorf("core: raw suite-average FIT for %v is %v; cannot calibrate",
				Mechanism(i), raw)
		}
		c.K[i] = perMechanismFIT / raw
	}
	return c, nil
}

// CalibrateSet solves the proportionality constants for an arbitrary
// mechanism set: each named mechanism's suite-average raw FIT is anchored
// to perMechanismFIT. Fixed-slot mechanisms land in K (unselected slots
// keep the neutral unit constant — their raw rates are zero everywhere,
// so the value never reaches a number); name-keyed mechanisms land in
// Extra. For the default four-mechanism set the arithmetic — one division
// per mechanism — is identical to Calibrate, so the solved constants are
// bit-identical to pre-registry releases.
func CalibrateSet(names []string, rawSuiteAvg map[string]float64, perMechanismFIT float64) (Constants, error) {
	if perMechanismFIT <= 0 {
		return Constants{}, fmt.Errorf("core: target FIT must be positive, got %v", perMechanismFIT)
	}
	c := UnitConstants()
	for _, name := range names {
		raw := rawSuiteAvg[name]
		if raw <= 0 {
			return Constants{}, fmt.Errorf("core: raw suite-average FIT for %s is %v; cannot calibrate",
				name, raw)
		}
		k := perMechanismFIT / raw
		if slot, ok := LegacySlot(name); ok {
			c.K[slot] = k
		} else {
			if c.Extra == nil {
				c.Extra = make(map[string]float64)
			}
			c.Extra[name] = k
		}
	}
	return c, nil
}

// Breakdown is a full FIT decomposition: one rate per structure per
// mechanism. The package-level thermal-cycling FIT is distributed across
// structures by die-area fraction so that both views sum to the same
// processor total (SOFR).
//
// The paper's four mechanisms occupy the fixed ByStructMech array;
// registry mechanisms beyond them occupy the name-keyed Extra list. A
// default-set breakdown has a nil Extra and marshals byte-identically to
// pre-registry releases (cached artifacts included). The name-keyed
// FITByName view is the primary result shape; ByMechanism remains as the
// fixed-array compatibility accessor for the default four.
type Breakdown struct {
	ByStructMech [microarch.NumStructures][NumMechanisms]float64
	// Extra holds per-structure rates of registry mechanisms outside the
	// paper's four, sorted by canonical mechanism name.
	Extra ExtraRates `json:"Extra,omitempty"`
}

// ExtraRate is one name-keyed mechanism's per-structure rates.
type ExtraRate struct {
	Name  string
	Rates [microarch.NumStructures]float64
}

// ExtraRates lists the name-keyed mechanisms of a Breakdown, sorted by
// name without duplicates; every float accumulation over it runs in that
// order, so totals are bit-identical from run to run. It is a slice rather
// than a map because the reliability stage builds one breakdown per 1µs
// interval and results keep theirs for as long as they are cached: a
// one-entry map costs an order of magnitude more to build and to hold than
// one slice element. Its JSON is the map encoding — an object keyed by
// mechanism name in sorted order — byte for byte.
type ExtraRates []ExtraRate

// find returns the index of name in x, or the index it would be inserted
// at to keep x sorted. The lists are a handful of entries long, so a
// linear scan beats a binary search.
func (x ExtraRates) find(name string) (int, bool) {
	for i := range x {
		if x[i].Name >= name {
			return i, x[i].Name == name
		}
	}
	return len(x), false
}

// MarshalJSON encodes x as the equivalent
// map[string][microarch.NumStructures]float64, which is what keeps the
// wire bytes of a Breakdown unchanged.
func (x ExtraRates) MarshalJSON() ([]byte, error) {
	if x == nil {
		return []byte("null"), nil
	}
	m := make(map[string][microarch.NumStructures]float64, len(x))
	for _, e := range x {
		m[e.Name] = e.Rates
	}
	return json.Marshal(m)
}

// UnmarshalJSON decodes the map encoding MarshalJSON writes, sorting the
// entries by name.
func (x *ExtraRates) UnmarshalJSON(b []byte) error {
	var m map[string][microarch.NumStructures]float64
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	if m == nil {
		*x = nil
		return nil
	}
	out := make(ExtraRates, 0, len(m))
	for name, rates := range m {
		out = append(out, ExtraRate{Name: name, Rates: rates})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	*x = out
	return nil
}

// Total returns the processor FIT: the SOFR sum over all structures and
// mechanisms (name-keyed mechanisms included, in sorted-name order).
func (b Breakdown) Total() float64 {
	var sum float64
	for s := range b.ByStructMech {
		for m := range b.ByStructMech[s] {
			sum += b.ByStructMech[s][m]
		}
	}
	for i := range b.Extra {
		for _, v := range b.Extra[i].Rates {
			sum += v
		}
	}
	return sum
}

// ByMechanism returns per-mechanism FIT summed over structures.
//
// Deprecated: ByMechanism covers only the paper's four fixed-slot
// mechanisms; name-keyed mechanisms are invisible to it. Use FITByName
// for the complete decomposition.
func (b Breakdown) ByMechanism() [NumMechanisms]float64 {
	var out [NumMechanisms]float64
	for s := range b.ByStructMech {
		for m := range b.ByStructMech[s] {
			out[m] += b.ByStructMech[s][m]
		}
	}
	return out
}

// FITByName returns the per-mechanism FIT summed over structures, keyed
// by canonical mechanism name — the primary decomposition view, covering
// fixed-slot and name-keyed mechanisms alike. Zero-rate default
// mechanisms are included (so the default view always lists the paper's
// four); zero-valued Extra entries are preserved as reported.
func (b Breakdown) FITByName() map[string]float64 {
	mech := b.ByMechanism()
	out := make(map[string]float64, NumMechanisms+len(b.Extra))
	for m := 0; m < NumMechanisms; m++ {
		out[mechanismKeyName(Mechanism(m))] = mech[m]
	}
	for _, e := range b.Extra {
		var sum float64
		for _, v := range e.Rates {
			sum += v
		}
		out[e.Name] = sum
	}
	return out
}

// MechanismFIT returns one mechanism's FIT summed over structures, by
// canonical name; unknown names return 0.
func (b Breakdown) MechanismFIT(name string) float64 {
	if slot, ok := LegacySlot(name); ok {
		var sum float64
		for s := range b.ByStructMech {
			sum += b.ByStructMech[s][slot]
		}
		return sum
	}
	var sum float64
	if i, ok := b.Extra.find(name); ok {
		for _, v := range b.Extra[i].Rates {
			sum += v
		}
	}
	return sum
}

// mechanismKeyName maps a fixed slot onto its canonical registry name.
func mechanismKeyName(m Mechanism) string {
	switch m {
	case EM:
		return MechEM
	case SM:
		return MechSM
	case TDDB:
		return MechTDDB
	case TC:
		return MechTC
	}
	return m.String()
}

// ByStructure returns per-structure FIT summed over mechanisms
// (name-keyed mechanisms included, accumulated in sorted-name order for
// run-to-run bit identity).
func (b Breakdown) ByStructure() [microarch.NumStructures]float64 {
	var out [microarch.NumStructures]float64
	for s := range b.ByStructMech {
		for m := range b.ByStructMech[s] {
			out[s] += b.ByStructMech[s][m]
		}
	}
	for i := range b.Extra {
		for s, v := range b.Extra[i].Rates {
			out[s] += v
		}
	}
	return out
}

// MTTFYears returns the processor mean time to failure implied by the
// SOFR total.
func (b Breakdown) MTTFYears() float64 {
	return phys.MTTFYearsFromFIT(b.Total())
}

// Equal reports exact (bitwise) equality of two breakdowns, treating nil
// and empty Extra lists alike. Breakdown stopped being ==-comparable when
// it gained the Extra list; use this instead.
func (b Breakdown) Equal(o Breakdown) bool {
	if b.ByStructMech != o.ByStructMech {
		return false
	}
	if len(b.Extra) != len(o.Extra) {
		return false
	}
	for i := range b.Extra {
		if b.Extra[i] != o.Extra[i] {
			return false
		}
	}
	return true
}

// Calibrated returns the breakdown with each mechanism's rates multiplied
// by its proportionality constant — converting raw model output into
// absolute FIT values.
func (b Breakdown) Calibrated(c Constants) Breakdown {
	var out Breakdown
	for s := range b.ByStructMech {
		for m := range b.ByStructMech[s] {
			out.ByStructMech[s][m] = b.ByStructMech[s][m] * c.K[m]
		}
	}
	out.Extra = b.Extra.scaled(func(name string) float64 { return c.ExtraK(name) })
	return out
}

// scale returns the breakdown multiplied by a scalar.
func (b Breakdown) scale(f float64) Breakdown {
	var out Breakdown
	for s := range b.ByStructMech {
		for m := range b.ByStructMech[s] {
			out.ByStructMech[s][m] = b.ByStructMech[s][m] * f
		}
	}
	out.Extra = b.Extra.scaled(func(string) float64 { return f })
	return out
}

// scaled returns a copy of x with each mechanism's rates multiplied by
// factor(name).
func (x ExtraRates) scaled(factor func(name string) float64) ExtraRates {
	if len(x) == 0 {
		return nil
	}
	out := make(ExtraRates, len(x))
	for i := range x {
		k := factor(x[i].Name)
		out[i].Name = x[i].Name
		for s, v := range x[i].Rates {
			out[i].Rates[s] = v * k
		}
	}
	return out
}

// add accumulates o (weighted by w) into b. b's Extra list is updated in
// place, so b must own it: add is only called on an Evaluator's private
// running sum.
func (b *Breakdown) add(o Breakdown, w float64) {
	for s := range b.ByStructMech {
		for m := range b.ByStructMech[s] {
			b.ByStructMech[s][m] += o.ByStructMech[s][m] * w
		}
	}
	for _, e := range o.Extra {
		i, ok := b.Extra.find(e.Name)
		if !ok {
			b.insertExtra(i, e.Name)
		}
		acc := &b.Extra[i].Rates
		for s, v := range e.Rates {
			acc[s] += v * w
		}
	}
}

// setExtra stores one name-keyed mechanism's per-structure rates, keeping
// Extra sorted by name. Like add, it writes b's list in place.
func (b *Breakdown) setExtra(name string, arr [microarch.NumStructures]float64) {
	i, ok := b.Extra.find(name)
	if !ok {
		b.insertExtra(i, name)
	}
	b.Extra[i].Rates = arr
}

// insertExtra inserts a zero-rate entry for name at index i.
func (b *Breakdown) insertExtra(i int, name string) {
	b.Extra = append(b.Extra, ExtraRate{})
	copy(b.Extra[i+1:], b.Extra[i:])
	b.Extra[i] = ExtraRate{Name: name}
}

// Evaluator computes instantaneous failure rates for one technology point
// and accumulates their time average over an application run, implementing
// the paper's 1µs-interval running-average methodology (§2, §4.4). The
// mechanism set it evaluates comes from the registry; NewEvaluator uses
// the paper's four, NewEvaluatorForSet any resolved selection.
type Evaluator struct {
	params   Params
	consts   Constants
	tech     scaling.Technology
	areaFrac [microarch.NumStructures]float64
	set      MechanismSet

	accTime float64
	accSum  Breakdown
	// constRates holds series-mechanism rates (constant over the run,
	// already multiplied by their calibration constants) folded into
	// Average by area fraction.
	constRates map[string]float64
}

// NewEvaluator builds an evaluator over the paper's four mechanisms.
// areasMm2 are the per-structure areas (any consistent scale; only the
// fractions matter).
func NewEvaluator(params Params, consts Constants, tech scaling.Technology, areasMm2 []float64) (*Evaluator, error) {
	return NewEvaluatorForSet(params, consts, tech, areasMm2, DefaultMechanismSet())
}

// NewEvaluatorForSet builds an evaluator over a resolved mechanism set.
func NewEvaluatorForSet(params Params, consts Constants, tech scaling.Technology,
	areasMm2 []float64, set MechanismSet) (*Evaluator, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := consts.Validate(); err != nil {
		return nil, err
	}
	if err := tech.Validate(); err != nil {
		return nil, err
	}
	if len(set.entries) == 0 {
		return nil, fmt.Errorf("core: empty mechanism set")
	}
	if len(areasMm2) != microarch.NumStructures {
		return nil, fmt.Errorf("core: got %d areas, want %d", len(areasMm2), microarch.NumStructures)
	}
	var total float64
	for _, a := range areasMm2 {
		if a <= 0 {
			return nil, fmt.Errorf("core: structure areas must be positive")
		}
		total += a
	}
	e := &Evaluator{params: params, consts: consts, tech: tech, set: set}
	for i, a := range areasMm2 {
		e.areaFrac[i] = a / total
	}
	return e, nil
}

// kFor returns the calibration constant of one set entry.
func (e *Evaluator) kFor(en setEntry) float64 {
	if en.slot >= 0 {
		return e.consts.K[en.slot]
	}
	return e.consts.ExtraK(en.model.Name())
}

// Instant evaluates the failure-rate breakdown at one operating point:
// per-structure activity factors and temperatures, the instantaneous
// supply voltage, and the area-weighted average die temperature (for
// package-scope mechanisms). Each selected mechanism contributes through
// its registered model; for the default set the per-cell arithmetic —
// (K·frac)·rate for structure scope, (K·rate)·frac for package scope —
// is exactly the pre-registry expression, so results are bit-identical.
// Series-only mechanisms (tc-rainflow) contribute 0 here.
func (e *Evaluator) Instant(af, tempK [microarch.NumStructures]float64, vddV, dieAvgK float64) Breakdown {
	var b Breakdown
	for _, en := range e.set.entries {
		switch en.model.Scope() {
		case ScopePackage:
			// A package-scope FIT is a single die-level rate; distribute
			// it by area so per-structure and per-mechanism views stay
			// consistent.
			total := e.kFor(en) * en.model.Rate(Sample{VddV: vddV, DieAvgTempK: dieAvgK}, e.params, e.tech)
			if en.slot >= 0 {
				for s := 0; s < microarch.NumStructures; s++ {
					b.ByStructMech[s][en.slot] = total * e.areaFrac[s]
				}
			} else if total != 0 {
				var arr [microarch.NumStructures]float64
				for s := 0; s < microarch.NumStructures; s++ {
					arr[s] = total * e.areaFrac[s]
				}
				b.setExtra(en.model.Name(), arr)
			}
		default:
			k := e.kFor(en)
			if en.slot >= 0 {
				for s := 0; s < microarch.NumStructures; s++ {
					b.ByStructMech[s][en.slot] = k * e.areaFrac[s] *
						en.model.Rate(Sample{AF: af[s], TempK: tempK[s], VddV: vddV, DieAvgTempK: dieAvgK}, e.params, e.tech)
				}
			} else {
				var arr [microarch.NumStructures]float64
				for s := 0; s < microarch.NumStructures; s++ {
					arr[s] = k * e.areaFrac[s] *
						en.model.Rate(Sample{AF: af[s], TempK: tempK[s], VddV: vddV, DieAvgTempK: dieAvgK}, e.params, e.tech)
				}
				b.setExtra(en.model.Name(), arr)
			}
		}
	}
	return b
}

// Accumulate folds an instantaneous breakdown held for the given duration
// into the running average. Duration units are arbitrary but must be
// consistent across calls.
func (e *Evaluator) Accumulate(b Breakdown, duration float64) {
	if duration <= 0 {
		return
	}
	e.accSum.add(b, duration)
	e.accTime += duration
}

// AddConstantRate folds a series-level mechanism's rate — constant over
// the run, e.g. the rainflow-counted thermal-cycling damage rate — into
// the breakdown Average returns. rate is the raw model output; it is
// multiplied by the mechanism's calibration constant and distributed
// across structures by area fraction (the time average of a constant is
// the constant, so this is exact, not an approximation).
func (e *Evaluator) AddConstantRate(name string, rate float64) {
	if e.constRates == nil {
		e.constRates = make(map[string]float64)
	}
	e.constRates[name] = e.consts.ExtraK(name) * rate
}

// Average returns the time-weighted average breakdown accumulated so far —
// the application's effective failure-rate decomposition, including any
// series-mechanism constant rates.
func (e *Evaluator) Average() Breakdown {
	var avg Breakdown
	if e.accTime != 0 {
		avg = e.accSum.scale(1 / e.accTime)
	}
	for name, rate := range e.constRates {
		var arr [microarch.NumStructures]float64
		for s := 0; s < microarch.NumStructures; s++ {
			arr[s] = rate * e.areaFrac[s]
		}
		if slot, ok := LegacySlot(name); ok {
			for s := 0; s < microarch.NumStructures; s++ {
				avg.ByStructMech[s][slot] += arr[s]
			}
		} else {
			avg.setExtra(name, arr)
		}
	}
	return avg
}

// AccumulatedTime returns the total duration accumulated.
func (e *Evaluator) AccumulatedTime() float64 { return e.accTime }

// Reset clears the running average.
func (e *Evaluator) Reset() {
	e.accSum = Breakdown{}
	e.accTime = 0
	e.constRates = nil
}

// TempForBudget solves the inverse qualification question: the uniform
// structure temperature at which this evaluator's total FIT (for the given
// activity factors and supply voltage) reaches budgetFIT. Because every
// mechanism's rate grows with temperature in the operating range, the
// answer is found by bisection; it is the thermal envelope a runtime
// manager must keep the chip under to honour the budget. Returns an error
// if the budget is unreachable within [min, max] Kelvin.
func (e *Evaluator) TempForBudget(af [microarch.NumStructures]float64, vddV, budgetFIT float64) (float64, error) {
	if budgetFIT <= 0 {
		return 0, fmt.Errorf("core: budget must be positive, got %v", budgetFIT)
	}
	const minK, maxK = 320.0, 480.0
	fitAt := func(tK float64) float64 {
		var temps [microarch.NumStructures]float64
		for i := range temps {
			temps[i] = tK
		}
		return e.Instant(af, temps, vddV, tK).Total()
	}
	lo, hi := minK, maxK
	if fitAt(lo) > budgetFIT {
		return 0, fmt.Errorf("core: budget %v FIT unreachable: already %v FIT at %vK",
			budgetFIT, fitAt(lo), lo)
	}
	if fitAt(hi) < budgetFIT {
		return 0, fmt.Errorf("core: budget %v FIT not binding below %vK", budgetFIT, hi)
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if fitAt(mid) < budgetFIT {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// Tech returns the evaluator's technology point.
func (e *Evaluator) Tech() scaling.Technology { return e.tech }

// Params returns the evaluator's mechanism constants.
func (e *Evaluator) Params() Params { return e.params }

// Set returns the evaluator's resolved mechanism set.
func (e *Evaluator) Set() MechanismSet { return e.set }
