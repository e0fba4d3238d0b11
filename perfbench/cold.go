package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"time"

	ramp "github.com/ramp-sim/ramp"
	"github.com/ramp-sim/ramp/internal/paperdata"
	"github.com/ramp-sim/ramp/internal/phase"
	"github.com/ramp-sim/ramp/internal/sim"
	"github.com/ramp-sim/ramp/internal/trace"
	"github.com/ramp-sim/ramp/internal/workload"
)

// The cold grid: four Table 3 applications, two per suite, at every
// technology point.
var coldApps = []string{"ammp", "mesa", "gzip", "crafty"}

const (
	coldExactInstrs = 1_000_000
	// Phase fidelity simulates about a tenth of the stream in detail, so
	// it gets five times the instructions for a comparable wall time.
	coldPhaseInstrs = 5_000_000
	// coldWarmDivisor sizes the warm-up study each setup runs.
	coldWarmDivisor = 4
)

// gridInputs builds a study's inputs for apps. The seed is added to each
// built-in profile seed, so seed 0 reproduces the built-in profiles.
func gridInputs(seed int64, apps []string, instrs int64, phaseMode bool) (ramp.Config, []ramp.Profile, []ramp.Technology, error) {
	cfg := ramp.DefaultConfig()
	cfg.Instructions = instrs
	if phaseMode {
		cfg.Fidelity = &ramp.Fidelity{Mode: sim.FidelityPhase}
	}
	profs := make([]ramp.Profile, len(apps))
	for i, name := range apps {
		p, err := ramp.ProfileByName(name)
		if err != nil {
			return cfg, nil, nil, err
		}
		p.Seed += seed
		profs[i] = p
	}
	return cfg, profs, ramp.Technologies(), nil
}

// checkStudyValues verifies a finished study's values: every value is
// finite (JSON refuses NaN and Inf) and the 180nm suite average equals the
// qualification target. It returns the encoded result.
func checkStudyValues(res *ramp.StudyResult) ([]byte, error) {
	doc, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("study result not finite: %w", err)
	}
	qual := res.Config.QualFITPerMechanism * float64(len(res.MechanismNames()))
	base := res.SuiteAverageFIT(0, 0)
	if math.Abs(base-qual) > 1e-9*qual {
		return nil, fmt.Errorf("180nm suite-average FIT %.9g, want the %.0f-FIT qualification", base, qual)
	}
	return doc, nil
}

// checkStudy is checkStudyValues plus the paper's trend: the
// suite-average FIT rises — SOFR MTTF falls — from each technology point
// to the next.
func checkStudy(res *ramp.StudyResult) ([]byte, error) {
	doc, err := checkStudyValues(res)
	if err != nil {
		return nil, err
	}
	for ti := 1; ti < len(res.Techs); ti++ {
		prev, cur := res.SuiteAverageFIT(ti-1, 0), res.SuiteAverageFIT(ti, 0)
		if !(cur > prev) {
			return nil, fmt.Errorf("suite-average FIT %s %.6g not above %s %.6g (MTTF must fall)",
				res.Techs[ti].Name, cur, res.Techs[ti-1].Name, prev)
		}
	}
	return doc, nil
}

func runCold(ctx context.Context, o options, out *outcome, phaseMode bool) error {
	instrs := int64(coldExactInstrs)
	if phaseMode {
		instrs = coldPhaseInstrs
	}
	cfg, profs, techs, err := gridInputs(o.seed, coldApps, instrs, phaseMode)
	if err != nil {
		return err
	}
	warm := cfg
	warm.Instructions = instrs / coldWarmDivisor
	runner, err := setUp(out, func(int) (*ramp.Runner, error) {
		r, err := ramp.New(ramp.WithParallelism(o.workers))
		if err != nil {
			return nil, err
		}
		if _, err := r.Study(ctx, warm, profs, techs); err != nil {
			return nil, fmt.Errorf("warm-up study: %w", err)
		}
		return r, nil
	}, func(*ramp.Runner) {})
	if err != nil {
		return err
	}
	out.note("grid %d apps x %d techs, %d instructions per app, fidelity %s",
		len(profs), len(techs), instrs, map[bool]string{false: "exact", true: "phase"}[phaseMode])
	if o.trace {
		return coldTraced(ctx, o, out, runner, cfg, profs, techs)
	}

	var ref []byte
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		out.attempted++
		t0 := time.Now()
		res, err := runner.Study(ctx, cfg, profs, techs)
		d := time.Since(t0)
		if err != nil {
			out.fail("study: %v", err)
			continue
		}
		doc, err := checkStudy(res)
		switch {
		case err != nil:
			out.fail("study: %v", err)
			continue
		case ref == nil:
			ref = doc
		case !bytes.Equal(doc, ref):
			out.fail("study: result differs from the first run of the same inputs")
			continue
		}
		out.op(start, t0, d)
	}
	out.window = time.Since(start)
	if len(out.lats) > 0 {
		out.note("ns_per_instr %.2f (median study / %d source instructions)",
			median(out.lats)*1e9/float64(int64(len(profs))*instrs), int64(len(profs))*instrs)
	}
	return nil
}

// timedTiming is one application's timing stage run through timedGen.
type timedTiming struct {
	tr   *ramp.ActivityTrace
	gen  *timedGen
	wall time.Duration
}

// runTimedTiming drives sim.RunTimingStreamContext over a timed generator,
// building the same stream sim.RunTimingContext builds (a systematic
// sampler over the generator under phase fidelity).
func runTimedTiming(ctx context.Context, cfg ramp.Config, prof ramp.Profile) (timedTiming, error) {
	gen, err := workload.New(prof, cfg.Instructions)
	if err != nil {
		return timedTiming{}, err
	}
	tg := newTimedGen(gen, 0, 0)
	var stream trace.Stream = tg
	if sc, ok := samplerConfig(cfg); ok {
		tg = newTimedGen(gen, sc.HeadInstrs, sc.WindowInstrs)
		if stream, err = trace.NewSystematicSampler(tg, sc); err != nil {
			return timedTiming{}, err
		}
	}
	start := time.Now()
	tr, err := sim.RunTimingStreamContext(ctx, cfg, prof, stream)
	return timedTiming{tr: tr, gen: tg, wall: time.Since(start)}, err
}

// samplerConfig is the sampling plan phase fidelity applies, with the
// program's defaults for unset fields.
func samplerConfig(cfg ramp.Config) (trace.SamplerConfig, bool) {
	f := cfg.Fidelity
	if f == nil || f.Mode != sim.FidelityPhase {
		return trace.SamplerConfig{}, false
	}
	pick := func(v, def int64) int64 {
		if v == 0 {
			return def
		}
		return v
	}
	return trace.SamplerConfig{
		WindowInstrs: pick(f.SampleWindowInstrs, sim.DefaultSampleWindowInstrs),
		PeriodInstrs: pick(f.SamplePeriodInstrs, sim.DefaultSamplePeriodInstrs),
		HeadInstrs:   pick(f.SampleHeadInstrs, sim.DefaultSampleHeadInstrs),
	}, true
}

// coldTraced alternates untraced and traced studies for the run time, then
// splits the timing stage with a timed-generator pass and checks that the
// traced and wrapped runs simulated exactly what the untraced ones did.
func coldTraced(ctx context.Context, o options, out *outcome, runner *ramp.Runner,
	cfg ramp.Config, profs []ramp.Profile, techs []ramp.Technology) error {
	var untraced, traced []float64
	var ref []byte
	var log *spanLog
	var rec *schedRec
	var wall time.Duration
	var last *ramp.StudyResult
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(traced) < 2 || time.Now().Before(deadline) {
		out.attempted += 2
		t0 := time.Now()
		res, err := runner.Study(ctx, cfg, profs, techs)
		untraced = append(untraced, time.Since(t0).Seconds())
		if err != nil {
			return fmt.Errorf("untraced study: %w", err)
		}
		doc, err := checkStudy(res)
		if err != nil {
			out.fail("untraced study: %v", err)
		}
		if ref == nil {
			ref = doc
		}

		log, rec = &spanLog{}, &schedRec{}
		tr, err := ramp.New(ramp.WithParallelism(o.workers),
			ramp.WithTracer(ramp.NewTracer(log)), ramp.WithMetrics(rec))
		if err != nil {
			return err
		}
		t0 = time.Now()
		last, err = tr.Study(ctx, cfg, profs, techs)
		wall = time.Since(t0)
		traced = append(traced, wall.Seconds())
		if err != nil {
			return fmt.Errorf("traced study: %w", err)
		}
		if doc, err := checkStudy(last); err != nil {
			out.fail("traced study: %v", err)
		} else if !bytes.Equal(doc, ref) {
			out.fail("traced study result differs from the untraced one")
		}
	}

	// Timing split: every application through the timed generator,
	// workers at a time, as the study's timing tasks run.
	runs := make([]timedTiming, len(profs))
	errs := make([]error, len(profs))
	sem := make(chan struct{}, o.workers)
	var wg sync.WaitGroup
	for i := range profs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			runs[i], errs[i] = runTimedTiming(ctx, cfg, profs[i])
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("timed timing: %w", err)
	}
	direct, err := sim.RunTimings(ctx, cfg, profs, sim.StudyOptions{Parallelism: o.workers})
	if err != nil {
		return fmt.Errorf("direct timing: %w", err)
	}
	out.attempted++
	for i := range profs {
		if !reflect.DeepEqual(runs[i].tr.Timing, direct[i].Timing) {
			out.fail("%s: timing through the timed generator differs from the direct run", profs[i].Name)
		}
		if runs[i].tr.Timing.IPC() != last.Apps[i].IPC {
			out.fail("%s: traced study IPC differs from the timed-generator IPC", profs[i].Name)
		}
	}

	m := out.layers
	sums := log.sums("app")
	samples := map[string]float64{}
	var gen, skip, pipe time.Duration
	var produced, skipped, retired, l1dAcc, l1dMiss, br, mispred int64
	var ipc float64
	for _, r := range runs {
		t := r.tr.Timing
		samples[r.tr.Profile.Name] = float64(len(t.Samples))
		gen += r.gen.genTime
		skip += r.gen.skipTime
		pipe += r.wall - r.gen.genTime - r.gen.skipTime
		produced += r.gen.produced
		skipped += r.gen.skipped
		retired += t.Instructions
		l1dAcc += t.L1DAccesses
		l1dMiss += t.L1DMisses
		br += t.Branches
		mispred += t.Mispredicts
		ipc += t.IPC() / float64(len(runs))
	}
	m["workload.gen_s"] = gen.Seconds()
	m["workload.skip_s"] = skip.Seconds()
	m["workload.instrs"] = float64(produced)
	m["workload.ns_per_instr"] = ratio(float64(gen.Nanoseconds()), float64(produced))
	m["microarch.run_s"] = pipe.Seconds()
	m["microarch.instrs"] = float64(retired)
	m["microarch.ns_per_instr"] = ratio(float64(pipe.Nanoseconds()), float64(retired))
	m["microarch.ipc"] = ipc
	m["microarch.l1d_miss_rate"] = ratio(float64(l1dMiss), float64(l1dAcc))
	m["microarch.mispredict_rate"] = ratio(float64(mispred), float64(br))
	m["trace.detail_fraction"] = ratio(float64(produced), float64(produced+skipped))

	cellSamples := func(span string) float64 {
		var n float64
		for app, calls := range sums.byAttr[span] {
			n += float64(calls) * samples[app]
		}
		return n
	}
	m["thermal.run_s"] = sums.total["sim.thermal"].Seconds()
	m["thermal.calls"] = float64(sums.count["sim.thermal"])
	m["thermal.intervals"] = cellSamples("sim.thermal")
	m["fit.run_s"] = sums.total["sim.fit"].Seconds()
	m["fit.cells"] = float64(sums.count["sim.fit"])
	m["fit.intervals"] = cellSamples("sim.fit")
	m["sim.self_s"] = sums.self["sim.cell"].Seconds()
	if sc, ok := samplerConfig(cfg); ok {
		m["phase.compress_s"] = replayCompress(cfg, sc, runs, sums.byAttr["sim.thermal"]).Seconds()
	}
	keyCost, err := replay(func() error { _, err := sim.StudyKey(cfg, profs, techs); return err })
	if err != nil {
		return err
	}
	m["keys.study_s"] = keyCost.Seconds()
	m["keys.calls"] = 1

	fillSched(m, rec, wall, o.workers)
	m["layers.coverage"] = coverage(map[string]time.Duration{
		"timing":  sums.self["sim.timing"],
		"thermal": sums.self["sim.thermal"],
		"fit":     sums.self["sim.fit"],
		"cell":    sums.self["sim.cell"],
	}, idle(rec, wall, o.workers), wall, o.workers)
	m["trace.overhead_pct"] = (median(traced)/median(untraced) - 1) * 100

	ipcErr, riseErr, err := accuracy(last)
	if err != nil {
		return err
	}
	m["accuracy.ipc_err_pct"] = ipcErr
	m["accuracy.fit_rise_err_pts"] = riseErr

	out.note("traced study wall %.3f s (median of %d; untraced %.3f s)", median(traced), len(traced), median(untraced))
	out.note("sim.timing spans %.3f s = workload %.3f s + microarch %.3f s in the timed-generator pass",
		sums.total["sim.timing"].Seconds(), (gen + skip).Seconds(), pipe.Seconds())
	return nil
}

// replayCompress times phase.Compress on each application's trace with
// the options the thermal stage uses, once per thermal call the traced
// study made for that application. Compression runs inside the thermal
// stage, so this is a share of thermal.run_s, not an additional layer.
func replayCompress(cfg ramp.Config, sc trace.SamplerConfig, runs []timedTiming, calls map[string]int) time.Duration {
	var total time.Duration
	for _, r := range runs {
		samples := r.tr.Timing.Samples
		opt := phase.Options{
			ExpandFactor: float64(sc.PeriodInstrs) / float64(sc.WindowInstrs),
			ExpandStart:  len(samples),
		}
		if cfg.Fidelity.PhaseEpsilonAF != 0 {
			opt.EpsilonAF = cfg.Fidelity.PhaseEpsilonAF
		}
		var retired int64
		for i := range samples {
			if retired >= sc.HeadInstrs {
				opt.ExpandStart = i
				break
			}
			retired += samples[i].Retired
		}
		cost, _ := replay(func() error {
			_, err := phase.Compress(samples, cfg.Machine.CyclesPerMicrosecond(), opt)
			return err
		})
		total += cost * time.Duration(calls[r.tr.Profile.Name])
	}
	return total
}

// accuracy compares a study with the paper: the mean relative error of
// the base-technology IPC against Table 3, and the distance of the
// suite-average FIT rise from 180nm to 65nm (1.0V) from the published
// 316%.
func accuracy(res *ramp.StudyResult) (ipcErrPct, riseErrPts float64, err error) {
	want := map[string]float64{}
	for _, row := range paperdata.Table3() {
		want[row.App] = row.IPC
	}
	var n float64
	for _, a := range res.AppsAt(0) {
		t, ok := want[a.App]
		if !ok {
			return 0, 0, fmt.Errorf("no Table 3 IPC for %s", a.App)
		}
		ipcErrPct += math.Abs(a.IPC-t) / t * 100
		n++
	}
	h, err := ramp.ComputeHeadline(res)
	if err != nil {
		return 0, 0, err
	}
	return ipcErrPct / n, math.Abs(h.TotalIncreasePct["all"] - paperdata.TotalIncreaseAvgPct), nil
}
