package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	ramp "github.com/ramp-sim/ramp"
	"github.com/ramp-sim/ramp/internal/sim"
)

const (
	// sweepMemEntries bounds each stage's memory LRU below the 20 thermal
	// series of the grid, so most thermal reads come from the spill files.
	sweepMemEntries = 8
)

// sweepMechanisms are the extra mechanisms of a batch's variants: one
// variant keeps the paper's four, the others add one mechanism each, so
// every batch does the same kinds of work.
var sweepMechanisms = []string{"", ramp.MechNBTI, ramp.MechHCI, ramp.MechTCRainflow}

// sweepFresh is the number of new variants per batch. Each batch also
// repeats its first variant, which the queue deduplicates: a 20%
// duplicate share.
var sweepFresh = len(sweepMechanisms)

// sweepVariant draws one variant of base adding mech (none when empty).
// The EM activation energy moves by up to ±1%, so every draw has fresh
// reliability-stage keys while sharing the thermal series.
func sweepVariant(base ramp.Config, mech string, rng *rand.Rand) ramp.Config {
	cfg := base
	cfg.RAMP.EM.ActivationEnergyEV *= 1 + 0.01*(2*rng.Float64()-1)
	if mech != "" {
		cfg.Mechanisms = append(ramp.DefaultMechanismNames(), mech)
	}
	return cfg
}

// sweepFixture is one Runner over a warm, disk-spilling stage cache.
type sweepFixture struct {
	dir    string
	cfg    ramp.Config
	profs  []ramp.Profile
	techs  []ramp.Technology
	runner *ramp.Runner
}

func (f *sweepFixture) newRunner(o options, extra ...ramp.Option) (*ramp.Runner, *storeRec, error) {
	rec := &storeRec{}
	opts := append([]ramp.Option{
		ramp.WithParallelism(1),
		ramp.WithCache(ramp.CacheOptions{MaxEntries: sweepMemEntries, Dir: f.dir, Observer: rec.observe}),
		ramp.WithBatchQueue(ramp.BatchOptions{Workers: o.workers}),
	}, extra...)
	r, err := ramp.New(opts...)
	return r, rec, err
}

// newSweepFixture spills the grid's timing, thermal and reliability
// artifacts with one full study, then opens the Runner that is measured.
func newSweepFixture(ctx context.Context, o options, dir string) (*sweepFixture, error) {
	cfg, profs, techs, err := gridInputs(o.seed, coldApps, coldExactInstrs, false)
	if err != nil {
		return nil, err
	}
	f := &sweepFixture{dir: dir, cfg: cfg, profs: profs, techs: techs}
	prefill, err := ramp.New(ramp.WithParallelism(o.workers),
		ramp.WithCache(ramp.CacheOptions{MaxEntries: sweepMemEntries, Dir: dir}))
	if err != nil {
		return nil, err
	}
	if _, err := prefill.Study(ctx, cfg, profs, techs); err != nil {
		return nil, fmt.Errorf("prefill: %w", err)
	}
	if f.runner, _, err = f.newRunner(o); err != nil {
		return nil, err
	}
	return f, nil
}

// batch builds repetition rep's items.
func (f *sweepFixture) batch(seed int64, rep int) []ramp.BatchItem {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(rep)))
	items := make([]ramp.BatchItem, 0, sweepFresh+1)
	for _, mech := range sweepMechanisms {
		items = append(items, ramp.BatchItem{Kind: ramp.BatchStudy, Config: sweepVariant(f.cfg, mech, rng),
			Profiles: f.profs, Techs: f.techs})
	}
	return append(items, items[0])
}

// runBatch submits items to r and waits for every job. It returns the
// time from submission to the last job done and the batch's final status.
func runBatch(ctx context.Context, r *ramp.Runner, items []ramp.BatchItem) (time.Duration, ramp.BatchStatus, error) {
	start := time.Now()
	st, err := r.SubmitBatch("perfbench", items)
	if err != nil {
		return 0, st, err
	}
	st, err = r.WaitBatch(ctx, st.ID)
	return time.Since(start), st, err
}

// checkBatch verifies every job of a batch finished and produced a valid
// study.
func checkBatch(r *ramp.Runner, st ramp.BatchStatus) error {
	for _, j := range st.Jobs {
		if j.State != ramp.JobDone {
			return fmt.Errorf("job %s ended %s: %s", j.ID, j.State, j.Error)
		}
		v, ok := r.JobResult(st.ID, j.ID)
		res, isStudy := v.(*ramp.StudyResult)
		if !ok || !isStudy {
			return fmt.Errorf("job %s has no study result", j.ID)
		}
		if _, err := checkStudyValues(res); err != nil {
			return fmt.Errorf("job %s: %w", j.ID, err)
		}
	}
	return nil
}

func diskFailures(r *ramp.Runner) int64 {
	s, _ := r.CacheStats()
	return s.Timing.DiskFailures + s.Thermal.DiskFailures + s.FIT.DiskFailures
}

func runSweep(ctx context.Context, o options, out *outcome) error {
	f, err := setUp(out, func(rep int) (*sweepFixture, error) {
		return newSweepFixture(ctx, o, filepath.Join(o.scratch, fmt.Sprintf("cache-%d", rep)))
	}, func(f *sweepFixture) { f.runner.Close() })
	if err != nil {
		return err
	}
	defer f.runner.Close()
	out.note("grid %d apps x %d techs from a %d-entry memory LRU over spill files; batches of %d fresh variants + 1 duplicate, %d job workers",
		len(f.profs), len(f.techs), sweepMemEntries, sweepFresh, o.workers)

	// The first batch is checked against an uncached recomputation of
	// its first variant and is not timed.
	items := f.batch(o.seed, -1)
	want, err := sim.RunStudyContext(ctx, items[0].Config, f.profs, f.techs, sim.StudyOptions{Parallelism: o.workers})
	if err != nil {
		return err
	}
	out.attempted++
	if _, st, err := runBatch(ctx, f.runner, items); err != nil {
		out.fail("check batch: %v", err)
	} else if err := checkBatch(f.runner, st); err != nil {
		out.fail("check batch: %v", err)
	} else {
		got, _ := f.runner.JobResult(st.ID, st.JobIDs[0])
		a, errA := json.Marshal(got)
		b, errB := json.Marshal(want)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			out.fail("cached-path result differs from the uncached recomputation")
		}
	}

	if o.trace {
		return sweepTraced(ctx, o, out, f)
	}
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	for rep := 0; time.Now().Before(deadline); rep++ {
		out.attempted++
		t0 := time.Now()
		d, st, err := runBatch(ctx, f.runner, f.batch(o.seed, rep))
		if err == nil {
			err = checkBatch(f.runner, st)
		}
		if err != nil {
			out.fail("batch %d: %v", rep, err)
			continue
		}
		out.op(start, t0, d)
	}
	out.window = time.Since(start)
	if n := diskFailures(f.runner); n != 0 {
		out.fail("%d stage-cache disk failures", n)
	}
	if len(out.lats) > 0 {
		cells := sweepFresh * len(f.profs) * len(f.techs)
		out.note("sweep_s %.4f, cells_per_s %.1f (%d cells per batch)",
			median(out.lats), float64(cells)/median(out.lats), cells)
	}
	return nil
}

// sweepTraced alternates batches on the measured Runner and on a traced
// Runner over the same spill directory.
func sweepTraced(ctx context.Context, o options, out *outcome, f *sweepFixture) error {
	log, rec := &spanLog{}, &schedRec{}
	tr, stores, err := f.newRunner(o, ramp.WithTracer(ramp.NewTracer(log)), ramp.WithMetrics(rec))
	if err != nil {
		return err
	}
	defer tr.Close()
	var untraced, traced []float64
	var wall, queued time.Duration
	var items int
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for rep := 0; len(traced) < 2 || time.Now().Before(deadline); rep++ {
		for i, r := range []*ramp.Runner{f.runner, tr} {
			out.attempted++
			batch := f.batch(o.seed, 2*rep+i)
			d, st, err := runBatch(ctx, r, batch)
			if err == nil {
				err = checkBatch(r, st)
			}
			if err != nil {
				out.fail("batch %d: %v", rep, err)
				continue
			}
			if r == f.runner {
				untraced = append(untraced, d.Seconds())
				continue
			}
			traced = append(traced, d.Seconds())
			wall += d
			items += len(batch)
			for _, j := range st.Jobs {
				queued += time.Duration(j.QueuedMS * float64(time.Millisecond))
			}
		}
	}
	if n := diskFailures(f.runner) + diskFailures(tr); n != 0 {
		out.fail("%d stage-cache disk failures", n)
	}

	m := out.layers
	sums := log.sums("app")
	stores.fill(m)
	m["store.disk_failures"] = float64(diskFailures(tr))
	m["store.get_s"] = sums.total["store.get"].Seconds()
	m["store.put_s"] = sums.total["store.put"].Seconds()
	m["ops.cache_hit_ratio"] = ratio(float64(stores.thermalHits.Load()), float64(stores.thermalGets.Load()))
	m["thermal.run_s"] = sums.total["sim.thermal"].Seconds()
	m["thermal.calls"] = float64(sums.count["sim.thermal"])
	m["microarch.run_s"] = sums.total["sim.timing"].Seconds()
	m["fit.run_s"] = sums.total["sim.fit"].Seconds()
	m["fit.cells"] = float64(sums.count["sim.fit"])
	m["sim.self_s"] = sums.self["sim.cell"].Seconds()
	var fitIntervals float64
	for _, p := range f.profs {
		t, err := tr.Timing(ctx, f.cfg, p)
		if err != nil {
			return err
		}
		fitIntervals += float64(sums.byAttr["sim.fit"][p.Name] * len(t.Timing.Samples))
	}
	m["fit.intervals"] = fitIntervals

	// Key hashing happens inside the cell and study spans; replay it on
	// one variant to size it. Each job hashes every cell twice (planning
	// which timing runs are needed, then resolving the cell) and each
	// submitted item once.
	variant := f.batch(o.seed, 0)[0]
	var cellKey time.Duration
	for _, p := range f.profs {
		for _, t := range f.techs {
			c, err := replay(func() error { _, err := sim.FITKey(variant.Config, p, t); return err })
			if err != nil {
				return err
			}
			cellKey += c
		}
	}
	cellKey /= time.Duration(len(f.profs) * len(f.techs))
	studyKey, err := replay(func() error { _, err := variant.Key(); return err })
	if err != nil {
		return err
	}
	stageCalls := 2 * sums.count["sim.cell"]
	m["keys.stage_s"] = (cellKey * time.Duration(stageCalls)).Seconds()
	m["keys.study_s"] = (studyKey * time.Duration(items)).Seconds()
	m["keys.calls"] = float64(stageCalls + items)

	js, _ := tr.BatchStats()
	m["jobs.submitted"] = float64(js.Submitted)
	m["jobs.deduped"] = float64(js.Deduped)
	m["jobs.dedup_ratio"] = ratio(float64(js.Deduped), float64(items))
	m["jobs.failed"] = float64(js.Failed)
	m["jobs.retried"] = float64(js.Retried)
	m["jobs.queue_wait_s"] = queued.Seconds()

	fillSched(m, rec, wall, o.workers)
	m["layers.coverage"] = coverage(map[string]time.Duration{
		"fit":     sums.self["sim.fit"],
		"thermal": sums.self["sim.thermal"],
		"timing":  sums.self["sim.timing"],
		"get":     sums.self["store.get"],
		"put":     sums.self["store.put"],
		"cell":    sums.self["sim.cell"],
	}, idle(rec, wall, o.workers), wall, o.workers)
	m["trace.overhead_pct"] = (median(traced)/median(untraced) - 1) * 100
	out.note("traced batches %d, median %.4f s (untraced %.4f s)", len(traced), median(traced), median(untraced))
	return nil
}
