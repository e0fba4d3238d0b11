package sim

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/ramp-sim/ramp/internal/core"
	"github.com/ramp-sim/ramp/internal/microarch"
	"github.com/ramp-sim/ramp/internal/obs"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/sched"
	"github.com/ramp-sim/ramp/internal/workload"
)

// WorstCase is the worst-case ("max") operating-point evaluation of §5.2
// for one technology: the highest per-structure activity factor and
// temperature seen by any application, applied steady-state.
type WorstCase struct {
	Tech scaling.Technology
	// MaxAF and MaxTempK are the suite-wide per-structure maxima.
	MaxAF, MaxTempK [microarch.NumStructures]float64
	// MaxDieAvgTempK is the suite-wide maximum die-average temperature.
	MaxDieAvgTempK float64
	// RawFIT is the worst-case breakdown with unit constants.
	RawFIT core.Breakdown
}

// StudyResult is the full output of a scaling study.
type StudyResult struct {
	// Config echoes the configuration used.
	Config Config
	// Techs lists the technology points evaluated, in input order.
	Techs []scaling.Technology
	// Apps holds one entry per (application × technology), grouped by
	// technology in Techs order, applications in input order.
	Apps []AppRun
	// Worst holds the worst-case evaluation per technology, aligned with
	// Techs.
	Worst []WorstCase
	// Constants is the reliability-qualification calibration solved at
	// the base technology (§4.4).
	Constants core.Constants
}

// FIT returns the calibrated failure-rate breakdown for an application run.
func (r *StudyResult) FIT(a AppRun) core.Breakdown {
	return applyConstants(a.RawFIT, r.Constants)
}

// WorstFIT returns the calibrated worst-case breakdown for a technology
// index.
func (r *StudyResult) WorstFIT(i int) core.Breakdown {
	return applyConstants(r.Worst[i].RawFIT, r.Constants)
}

// AppsAt returns the application runs for one technology index.
func (r *StudyResult) AppsAt(i int) []AppRun {
	var out []AppRun
	for _, a := range r.Apps {
		if a.Tech.Name == r.Techs[i].Name {
			out = append(out, a)
		}
	}
	return out
}

// applyConstants scales a raw breakdown by the per-mechanism calibration.
func applyConstants(b core.Breakdown, c core.Constants) core.Breakdown {
	return b.Calibrated(c)
}

// Stage labels of the study's task graph, as reported through
// StudyOptions.OnProgress.
const (
	// StageTiming is the per-profile timing simulation.
	StageTiming = "timing"
	// StageBase is the per-profile 180nm evaluation with power calibration.
	StageBase = "base"
	// StageQualify is the single reliability-qualification solve (§4.4).
	StageQualify = "qualify"
	// StageScaled is one (profile × non-base technology) evaluation.
	StageScaled = "scaled"
	// StageWorst is the per-technology worst-case analysis (§5.2).
	StageWorst = "worst"
)

// StudyOptions tunes the execution of a study without affecting its
// numerics: any parallelism — and any stage-cache state — produces
// bit-identical results.
type StudyOptions struct {
	// Parallelism bounds the number of concurrently evaluated tasks;
	// values < 1 default to runtime.GOMAXPROCS(0).
	Parallelism int
	// OnProgress, when non-nil, receives a completion event per finished
	// task. It is called from worker goroutines and must be safe for
	// concurrent use.
	OnProgress func(sched.Progress)
	// Metrics, when non-nil, receives scheduler lifecycle events. A
	// shared *sched.Counters lets a long-lived observer (rampd's /metrics)
	// track queue depth and in-flight tasks across concurrent studies.
	Metrics sched.Recorder
	// Cache, when non-nil, memoises the study's stages content-addressed:
	// timing per profile, thermal series per (profile × technology), and
	// finished AppRuns per (profile × technology × reliability
	// constants). A warm cache turns a sweep that changes only downstream
	// inputs into a replay of the cheap stages; a cancelled study leaves
	// only complete, reusable artifacts behind.
	Cache *StageCache
	// OnApp, when non-nil, receives each completed (profile × technology)
	// cell the moment it lands, long before the whole grid finishes —
	// the streaming hook behind Runner.StreamStudy and rampd's
	// /v1/study/stream. It is called from worker goroutines and must be
	// safe for concurrent use.
	OnApp func(AppEvent)
}

// AppEvent is one completed (profile × technology) cell of a running
// study, delivered through StudyOptions.OnApp as the grid fills in.
type AppEvent struct {
	// Run is the completed cell. Run.RawFIT is uncalibrated: the
	// qualification constants are only known once every base cell has
	// finished, so streaming consumers receive raw breakdowns and apply
	// the Constants from the final StudyResult (or ReferenceConstants).
	Run AppRun
	// Source is the cell's provenance: CellFromFITCache,
	// CellFromThermalCache, or CellComputed.
	Source string
	// CellsDone and CellsTotal count completed and scheduled cells.
	CellsDone, CellsTotal int
}

// RunStudyContext executes the complete study: timing for every profile,
// base-technology evaluation (per-application power calibration and
// sink-temperature capture), reliability qualification, every scaled
// technology point, and the worst-case analysis per technology. techs
// must start with the base (180nm) technology.
//
// The study runs as a dependency graph on a worker pool: a profile's
// scaled-technology evaluations start the moment its own base calibration
// finishes instead of waiting for the slowest profile of each stage. Cancelling ctx aborts outstanding work promptly and returns
// ctx.Err(); the first task failure cancels the rest of the study.
func RunStudyContext(ctx context.Context, cfg Config, profiles []workload.Profile,
	techs []scaling.Technology, opts StudyOptions) (*StudyResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Canonicalise the mechanism selection up front so every spelling of
	// one set — including any explicit spelling of the default four —
	// produces byte-identical StudyResult documents, not just identical
	// stage keys.
	cfg, err := canonicalizeConfigMechanisms(cfg)
	if err != nil {
		return nil, err
	}
	if len(profiles) == 0 {
		return nil, fmt.Errorf("sim: no profiles")
	}
	if len(techs) == 0 {
		return nil, fmt.Errorf("sim: no technologies")
	}
	base := scaling.Base()
	if techs[0].Name != base.Name {
		return nil, fmt.Errorf("sim: first technology must be %s (calibration anchor), got %s",
			base.Name, techs[0].Name)
	}

	// The study span roots the trace; each cell detaches onto its own
	// track below it so concurrent cells render as parallel rows.
	ctx, studySpan := obs.StartSpan(ctx, obs.SpanStudy)
	if studySpan != nil {
		studySpan.SetAttr("profiles", strconv.Itoa(len(profiles)))
		studySpan.SetAttr("techs", strconv.Itoa(len(techs)))
		if tc := obs.TraceContextFrom(ctx); tc.Valid() {
			studySpan.SetAttr("trace_id", tc.TraceID)
		}
		defer studySpan.Finish()
	}

	// Task results land in index-addressed slots, so the assembled result
	// is identical for every parallelism level and scheduling order.
	n := len(profiles)
	s := &studyRun{
		cfg:        cfg,
		profiles:   profiles,
		techs:      techs,
		cache:      opts.Cache,
		onApp:      opts.OnApp,
		cellsTotal: n * len(techs),
		traces:     make([]*ActivityTrace, n),
		traceMu:    make([]sync.Mutex, n),
		baseRuns:   make([]AppRun, n),
		scales:     make([]float64, n),
		scaled:     make([][]AppRun, len(techs)), // scaled[ti][i], ti >= 1
	}
	for ti := 1; ti < len(techs); ti++ {
		s.scaled[ti] = make([]AppRun, n)
	}
	if s.cache != nil {
		s.timingKeys = make([]string, n)
		for i := range profiles {
			if s.timingKeys[i], err = TimingKey(cfg, profiles[i]); err != nil {
				return nil, err
			}
		}
	}
	worst := make([]WorstCase, len(techs))
	var consts core.Constants

	timingID := func(i int) string { return fmt.Sprintf("%s/%d/%s", StageTiming, i, profiles[i].Name) }
	baseID := func(i int) string { return fmt.Sprintf("%s/%d/%s", StageBase, i, profiles[i].Name) }
	scaledID := func(i, ti int) string {
		return fmt.Sprintf("%s/%d/%s@%s", StageScaled, i, profiles[i].Name, techs[ti].Name)
	}
	baseIDs := make([]string, n)
	for i := range profiles {
		baseIDs[i] = baseID(i)
	}

	g := sched.NewGraph()
	for i := range profiles {
		i := i
		g.MustAdd(sched.Task{
			ID:    timingID(i),
			Stage: StageTiming,
			Run: func(ctx context.Context) error {
				// With a warm stage cache a profile whose every cell is
				// resolvable from downstream artifacts never needs its
				// trace — the most expensive stage is skipped outright.
				if s.cache != nil && !s.profileNeedsTrace(i) {
					return nil
				}
				_, err := s.ensureTrace(ctx, i)
				return err
			},
		})
		g.MustAdd(sched.Task{
			ID:    baseIDs[i],
			Stage: StageBase,
			Deps:  []string{timingID(i)},
			Run: func(ctx context.Context) error {
				run, src, err := s.cellBase(ctx, i)
				if err != nil {
					return fmt.Errorf("sim: base eval %s: %w", profiles[i].Name, err)
				}
				s.baseRuns[i], s.scales[i] = run, run.AppPowerScale
				s.emit(run, src)
				return nil
			},
		})
		for ti := 1; ti < len(techs); ti++ {
			i, ti := i, ti
			tech := techs[ti]
			g.MustAdd(sched.Task{
				ID:    scaledID(i, ti),
				Stage: StageScaled,
				Deps:  []string{baseIDs[i]},
				Run: func(ctx context.Context) error {
					run, src, err := s.cellScaled(ctx, i, ti)
					if err != nil {
						return fmt.Errorf("sim: %s @ %s: %w", profiles[i].Name, tech.Name, err)
					}
					s.scaled[ti][i] = run
					s.emit(run, src)
					return nil
				},
			})
		}
	}

	// Reliability qualification at the base point (§4.4) needs every base
	// run, but nothing downstream waits on it: scaled evaluations proceed
	// concurrently and the constants are only attached at assembly. The
	// solve runs over the configured mechanism set by name; for the
	// default four the per-name accumulation and per-name division are the
	// same operations in the same order as the historical fixed-array
	// solve, so the constants are bit-identical.
	g.MustAdd(sched.Task{
		ID:    StageQualify,
		Stage: StageQualify,
		Deps:  baseIDs,
		Run: func(ctx context.Context) error {
			set, err := cfg.MechanismSet()
			if err != nil {
				return err
			}
			names := set.Names()
			rawAvg := make(map[string]float64, len(names))
			for i := range s.baseRuns {
				mech := s.baseRuns[i].RawFIT.FITByName()
				for _, nm := range names {
					rawAvg[nm] += mech[nm] / float64(n)
				}
			}
			c, err := core.CalibrateSet(names, rawAvg, cfg.QualFITPerMechanism)
			if err != nil {
				return fmt.Errorf("sim: qualification: %w", err)
			}
			consts = c
			return nil
		},
	})

	for ti := range techs {
		ti := ti
		tech := techs[ti]
		deps := baseIDs
		if ti > 0 {
			deps = make([]string, n)
			for i := range profiles {
				deps[i] = scaledID(i, ti)
			}
		}
		g.MustAdd(sched.Task{
			ID:    fmt.Sprintf("%s/%d/%s", StageWorst, ti, tech.Name),
			Stage: StageWorst,
			Deps:  deps,
			Run: func(ctx context.Context) error {
				runs := s.baseRuns
				if ti > 0 {
					runs = s.scaled[ti]
				}
				wc, err := worstCaseFor(cfg, runs, tech)
				if err != nil {
					return err
				}
				worst[ti] = wc
				return nil
			},
		})
	}

	if err := g.Run(ctx, sched.Options{
		Parallelism: opts.Parallelism,
		OnProgress:  opts.OnProgress,
		Metrics:     opts.Metrics,
	}); err != nil {
		return nil, err
	}

	result := &StudyResult{
		Config:    cfg,
		Techs:     techs,
		Constants: consts,
		Apps:      make([]AppRun, 0, n*len(techs)),
		Worst:     worst,
	}
	result.Apps = append(result.Apps, s.baseRuns...)
	for ti := 1; ti < len(techs); ti++ {
		result.Apps = append(result.Apps, s.scaled[ti]...)
	}
	return result, nil
}

// studyRun is the shared mutable state of one executing study: the
// index-addressed result slots the tasks write into, plus the stage-cache
// plumbing and the streaming hook.
type studyRun struct {
	cfg      Config
	profiles []workload.Profile
	techs    []scaling.Technology
	cache    *StageCache
	onApp    func(AppEvent)
	// timingKeys holds each profile's TimingKey when cache is set: every
	// cell key of the profile hashes it, and it is the costliest of the
	// three to derive.
	timingKeys []string

	traces  []*ActivityTrace
	traceMu []sync.Mutex // per-profile: serialises lazy trace materialisation

	baseRuns []AppRun
	scales   []float64
	scaled   [][]AppRun // scaled[ti][i], ti >= 1

	cellsDone  atomic.Int64
	cellsTotal int
}

// emit delivers one finished cell to the streaming hook.
func (s *studyRun) emit(run AppRun, src string) {
	done := int(s.cellsDone.Add(1))
	if s.onApp != nil {
		s.onApp(AppEvent{Run: run, Source: src, CellsDone: done, CellsTotal: s.cellsTotal})
	}
}

// ensureTrace returns profile i's activity trace, materialising it at
// most once per study (through the stage cache when one is configured).
// Cell tasks call it lazily, so a cache eviction between planning and
// execution degrades to recomputation, never to an error.
func (s *studyRun) ensureTrace(ctx context.Context, i int) (*ActivityTrace, error) {
	s.traceMu[i].Lock()
	defer s.traceMu[i].Unlock()
	if s.traces[i] != nil {
		return s.traces[i], nil
	}
	tr, err := RunTimingCachedContext(ctx, s.cfg, s.profiles[i], s.cache)
	if err != nil {
		return nil, fmt.Errorf("sim: timing %s: %w", s.profiles[i].Name, err)
	}
	s.traces[i] = tr
	return tr, nil
}

// profileNeedsTrace reports whether any cell of profile i will need the
// activity trace: a cell is trace-free when its finished AppRun or its
// thermal series is already cached. Contains is advisory (an entry can be
// evicted before use); ensureTrace covers the race.
func (s *studyRun) profileNeedsTrace(i int) bool {
	for ti := range s.techs {
		thermalKey, fitKey, err := cellKeys(s.cfg, s.timingKeys[i], s.techs[ti])
		if err != nil {
			return true // surface the key error on the cell path
		}
		if !s.cache.fit.Contains(fitKey) && !s.cache.thermal.Contains(thermalKey) {
			return true
		}
	}
	return false
}

// cellBase produces profile i's base-technology cell: served from the FIT
// cache, replayed from a cached thermal series, or computed (with the
// per-application power calibration of §4.4) — in that order of
// preference. The returned provenance label feeds AppEvent.Source.
func (s *studyRun) cellBase(ctx context.Context, i int) (AppRun, string, error) {
	base := s.techs[0]
	run, src, err := s.cellCached(ctx, i, base, func(ctx context.Context) (*ThermalSeries, error) {
		tr, err := s.ensureTrace(ctx, i)
		if err != nil {
			return nil, err
		}
		return evaluateBaseThermal(ctx, s.cfg, tr, s.profiles[i])
	})
	return run, src, err
}

// cellScaled produces the (profile i × technology ti) cell, holding the
// heat-sink temperature at the profile's base-technology value (§4.3).
func (s *studyRun) cellScaled(ctx context.Context, i, ti int) (AppRun, string, error) {
	tech := s.techs[ti]
	return s.cellCached(ctx, i, tech, func(ctx context.Context) (*ThermalSeries, error) {
		tr, err := s.ensureTrace(ctx, i)
		if err != nil {
			return nil, err
		}
		return RunThermalContext(ctx, s.cfg, tr, tech, s.baseRuns[i].SinkTempK, s.scales[i])
	})
}

// cellCached implements the per-cell stage waterfall: FIT cache → thermal
// cache + reliability replay → full computation via produce. Artifacts are
// inserted only when complete, so a cancelled cell leaves the cache
// exactly as it found it. The whole waterfall runs inside a sim.cell span
// on its own trace track, annotated with the cell's identity and
// provenance.
func (s *studyRun) cellCached(ctx context.Context, i int, tech scaling.Technology,
	produce func(context.Context) (*ThermalSeries, error)) (AppRun, string, error) {
	ctx, cell := obs.StartTrackSpan(ctx, obs.SpanCell)
	run, src, err := s.cellResolve(ctx, i, tech, produce)
	if cell != nil {
		cell.SetAttr("app", s.profiles[i].Name)
		cell.SetAttr("tech", tech.Name)
		if err != nil {
			cell.SetAttr("error", err.Error())
		} else {
			cell.SetAttr("source", src)
		}
		cell.Finish()
	}
	return run, src, err
}

// cellResolve is cellCached's uninstrumented body.
func (s *studyRun) cellResolve(ctx context.Context, i int, tech scaling.Technology,
	produce func(context.Context) (*ThermalSeries, error)) (AppRun, string, error) {
	var thermalKey, fitKey string
	if s.cache != nil {
		var err error
		thermalKey, fitKey, err = cellKeys(s.cfg, s.timingKeys[i], tech)
		if err != nil {
			return AppRun{}, "", err
		}
		if run, ok := cacheGet(ctx, s.cache.fit, "fit", fitKey); ok {
			return *run, CellFromFITCache, nil
		}
		if ts, ok := cacheGet(ctx, s.cache.thermal, "thermal", thermalKey); ok {
			run, err := AccumulateFITContext(ctx, s.cfg, ts, tech)
			if err != nil {
				return AppRun{}, "", err
			}
			cachePut(ctx, s.cache.fit, "fit", fitKey, &run)
			return run, CellFromThermalCache, nil
		}
	}
	ts, err := produce(ctx)
	if err != nil {
		return AppRun{}, "", err
	}
	if s.cache != nil {
		cachePut(ctx, s.cache.thermal, "thermal", thermalKey, ts)
	}
	run, err := AccumulateFITContext(ctx, s.cfg, ts, tech)
	if err != nil {
		return AppRun{}, "", err
	}
	if s.cache != nil {
		cachePut(ctx, s.cache.fit, "fit", fitKey, &run)
	}
	return run, CellComputed, nil
}

// RunTimings executes the timing stage for several profiles on a bounded
// worker pool, returning the traces in input order. opts mirrors
// RunStudyContext (progress events carry the StageTiming label).
func RunTimings(ctx context.Context, cfg Config, profiles []workload.Profile,
	opts StudyOptions) ([]*ActivityTrace, error) {
	out := make([]*ActivityTrace, len(profiles))
	err := sched.Map(ctx, len(profiles),
		sched.Options{Parallelism: opts.Parallelism, OnProgress: opts.OnProgress, Metrics: opts.Metrics},
		StageTiming,
		func(ctx context.Context, i int) error {
			tr, err := RunTimingContext(ctx, cfg, profiles[i])
			if err != nil {
				return fmt.Errorf("sim: timing %s: %w", profiles[i].Name, err)
			}
			out[i] = tr
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// evaluateBaseThermal runs one profile's base-technology thermal stage,
// solving the per-application dynamic-power factor toward the Table 3
// target when configured (two refinement passes, letting leakage
// re-settle each time). Calibration needs only the power aggregates, so
// the refinement passes skip the reliability stage entirely; the returned
// series records the solved factor in AppPowerScale.
func evaluateBaseThermal(ctx context.Context, cfg Config, tr *ActivityTrace,
	prof workload.Profile) (*ThermalSeries, error) {
	base := scaling.Base()
	scale := 1.0
	ts, err := RunThermalContext(ctx, cfg, tr, base, 0, scale)
	if err != nil {
		return nil, err
	}
	if cfg.CalibrateAppPower && prof.TargetPowerW > 0 {
		for pass := 0; pass < 2; pass++ {
			want := prof.TargetPowerW - ts.AvgLeakageW
			if want <= 0 || ts.AvgDynamicW <= 0 {
				break
			}
			scale *= want / ts.AvgDynamicW
			ts, err = RunThermalContext(ctx, cfg, tr, base, 0, scale)
			if err != nil {
				return nil, err
			}
		}
	}
	return ts, nil
}

// worstCaseFor evaluates the steady worst-case operating point over a set
// of application runs at one technology: §5.2 computes the worst-case FIT
// from "the highest activity factor (p) and the highest temperature across
// all applications", used for the entire run. (An even more pessimistic
// reading — a steady thermal solve under *sustained* maximum activity —
// roughly doubles the gaps again; see EXPERIMENTS.md for the comparison
// against the paper's reported margins.)
func worstCaseFor(cfg Config, runs []AppRun, tech scaling.Technology) (WorstCase, error) {
	if len(runs) == 0 {
		return WorstCase{}, fmt.Errorf("sim: no runs for worst case at %s", tech.Name)
	}
	wc := WorstCase{Tech: tech}
	for _, run := range runs {
		for b := 0; b < microarch.NumStructures; b++ {
			if run.MaxAF[b] > wc.MaxAF[b] {
				wc.MaxAF[b] = run.MaxAF[b]
			}
			if run.MaxTempK[b] > wc.MaxTempK[b] {
				wc.MaxTempK[b] = run.MaxTempK[b]
			}
		}
		if run.MaxDieAvgTempK > wc.MaxDieAvgTempK {
			wc.MaxDieAvgTempK = run.MaxDieAvgTempK
		}
	}
	fp, err := floorplanFor(tech)
	if err != nil {
		return WorstCase{}, err
	}
	set, err := cfg.MechanismSet()
	if err != nil {
		return WorstCase{}, err
	}
	eval, err := core.NewEvaluatorForSet(cfg.RAMP, core.UnitConstants(), tech, fp.Areas(), set)
	if err != nil {
		return WorstCase{}, err
	}
	// Series-only mechanisms (tc-rainflow) have no instantaneous rate and
	// contribute 0 to the worst-case point by design.
	wc.RawFIT = eval.Instant(wc.MaxAF, wc.MaxTempK, tech.VddV, wc.MaxDieAvgTempK)
	return wc, nil
}

// SuiteAverageFIT returns the average calibrated total FIT over the runs
// of one suite (or all runs when suite is 0) at one technology index.
func (r *StudyResult) SuiteAverageFIT(ti int, suite workload.Suite) float64 {
	var sum float64
	var n int
	for _, a := range r.AppsAt(ti) {
		if suite != 0 && a.Suite != suite {
			continue
		}
		sum += r.FIT(a).Total()
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MechanismNames returns the canonical names of the mechanisms the study
// evaluated, in sorted order (the paper's four when none were configured).
func (r *StudyResult) MechanismNames() []string {
	canon, err := core.CanonicalMechanismNames(r.Config.Mechanisms)
	if err != nil || canon == nil {
		return core.DefaultMechanismNames()
	}
	return canon
}

// SuiteAverageMechByName returns the suite-average calibrated
// per-mechanism FIT at one technology index, keyed by canonical mechanism
// name — the primary decomposition view, covering registry-selected
// mechanisms the fixed-array SuiteAverageMech cannot see.
func (r *StudyResult) SuiteAverageMechByName(ti int, suite workload.Suite) map[string]float64 {
	out := make(map[string]float64)
	var n int
	for _, a := range r.AppsAt(ti) {
		if suite != 0 && a.Suite != suite {
			continue
		}
		for name, fit := range r.FIT(a).FITByName() {
			out[name] += fit
		}
		n++
	}
	if n == 0 {
		return out
	}
	for name := range out {
		out[name] /= float64(n)
	}
	return out
}

// SuiteAverageMech returns the suite-average calibrated per-mechanism FIT
// at one technology index.
//
// Deprecated: SuiteAverageMech covers only the paper's four fixed-slot
// mechanisms; registry-selected mechanisms are invisible to it. Use
// SuiteAverageMechByName for the complete decomposition.
func (r *StudyResult) SuiteAverageMech(ti int, suite workload.Suite) [core.NumMechanisms]float64 {
	var out [core.NumMechanisms]float64
	var n int
	for _, a := range r.AppsAt(ti) {
		if suite != 0 && a.Suite != suite {
			continue
		}
		mech := r.FIT(a).ByMechanism()
		for m := range out {
			out[m] += mech[m]
		}
		n++
	}
	if n == 0 {
		return out
	}
	for m := range out {
		out[m] /= float64(n)
	}
	return out
}

// FITRange returns the lowest and highest calibrated application total FIT
// at one technology index.
func (r *StudyResult) FITRange(ti int) (lo, hi float64) {
	apps := r.AppsAt(ti)
	if len(apps) == 0 {
		return 0, 0
	}
	totals := make([]float64, len(apps))
	for i, a := range apps {
		totals[i] = r.FIT(a).Total()
	}
	sort.Float64s(totals)
	return totals[0], totals[len(totals)-1]
}
