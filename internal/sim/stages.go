package sim

import (
	"context"

	"github.com/ramp-sim/ramp/internal/obs"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/store"
	"github.com/ramp-sim/ramp/internal/workload"
)

// StageCacheOptions bounds a StageCache.
type StageCacheOptions struct {
	// MaxEntries bounds each stage's in-memory LRU (default 256 per
	// stage). Thermal artifacts are the largest — roughly 130 bytes per
	// simulated microsecond per cell.
	MaxEntries int
	// Dir, when non-empty, spills encoded artifacts under it
	// (Dir/timing, Dir/thermal, Dir/fit) so later processes start warm.
	Dir string
	// Observer, when non-nil, receives one store.Event per cache
	// operation across all three stage stores; Event.Store carries the
	// stage name ("timing", "thermal", "fit"). It is called from
	// simulation worker goroutines and must be safe for concurrent use.
	Observer func(store.Event)
}

// StageCache is the content-addressed artifact cache of the staged study
// pipeline: one store per stage, keyed by TimingKey / ThermalKey / FITKey.
// A nil *StageCache disables caching everywhere it is accepted.
//
// Consistency is structural: artifacts are only ever inserted complete
// (a cancelled stage returns an error and stores nothing), and a key
// change in any upstream input changes the downstream keys, so stale
// reuse is impossible without hash collision.
type StageCache struct {
	timing  *store.Store[*ActivityTrace]
	thermal *store.Store[*ThermalSeries]
	fit     *store.Store[*AppRun]
}

// NewStageCache builds the three per-stage stores.
func NewStageCache(opts StageCacheOptions) (*StageCache, error) {
	so := store.Options{MaxEntries: opts.MaxEntries, Dir: opts.Dir, Observer: opts.Observer}
	timing, err := store.New("timing", so, timingCodec())
	if err != nil {
		return nil, err
	}
	thermal, err := store.New("thermal", so, thermalCodec())
	if err != nil {
		return nil, err
	}
	fit, err := store.New("fit", so, fitCodec())
	if err != nil {
		return nil, err
	}
	return &StageCache{timing: timing, thermal: thermal, fit: fit}, nil
}

// StageCacheStats snapshots all three stores.
type StageCacheStats struct {
	Timing, Thermal, FIT store.Stats
}

// Stats returns a consistent-enough snapshot for observability (each
// store is snapshotted atomically; the three reads are not mutually
// atomic).
func (c *StageCache) Stats() StageCacheStats {
	return StageCacheStats{
		Timing:  c.timing.Stats(),
		Thermal: c.thermal.Stats(),
		FIT:     c.fit.Stats(),
	}
}

// Cell provenance labels reported through StudyOptions.OnApp: how a
// completed (profile × technology) cell was produced.
const (
	// CellFromFITCache means the finished AppRun was served whole.
	CellFromFITCache = "fit-cache"
	// CellFromThermalCache means the thermal series was reused and only
	// the reliability stage ran.
	CellFromThermalCache = "thermal-cache"
	// CellComputed means the thermal (and possibly timing) stage ran.
	CellComputed = "computed"
)

// RunTimingCachedContext is RunTimingContext through a stage cache: a hit
// on the profile's timing key skips the simulation entirely. cache may be
// nil.
func RunTimingCachedContext(ctx context.Context, cfg Config, prof workload.Profile,
	cache *StageCache) (*ActivityTrace, error) {
	ctx, sp := obs.StartSpan(ctx, obs.SpanTiming)
	sp.SetAttr("app", prof.Name)
	defer sp.Finish()
	if cache == nil {
		return RunTimingContext(ctx, cfg, prof)
	}
	key, err := TimingKey(cfg, prof)
	if err != nil {
		return nil, err
	}
	if tr, ok := cacheGet(ctx, cache.timing, StageTiming, key); ok {
		sp.SetAttr("cache", "hit")
		return tr, nil
	}
	sp.SetAttr("cache", "miss")
	tr, err := RunTimingContext(ctx, cfg, prof)
	if err != nil {
		return nil, err
	}
	cachePut(ctx, cache.timing, StageTiming, key, tr)
	return tr, nil
}

// cacheGet wraps one stage-store lookup in a store.get span carrying the
// stage, its hit/miss result and, for a hit, the tier (mem or disk) that
// served it.
func cacheGet[T any](ctx context.Context, st *store.Store[T], stage, key string) (T, bool) {
	_, sp := obs.StartSpan(ctx, obs.SpanCacheGet)
	v, tier := st.Get(key)
	if sp != nil {
		sp.SetAttr("stage", stage)
		if tier.Hit() {
			sp.SetAttr("result", "hit")
			sp.SetAttr("tier", tier.String())
		} else {
			sp.SetAttr("result", "miss")
		}
		sp.Finish()
	}
	return v, tier.Hit()
}

// cachePut wraps one stage-store insert in a store.put span carrying the
// stage and whether the artifact was spilled to disk.
func cachePut[T any](ctx context.Context, st *store.Store[T], stage, key string, v T) {
	_, sp := obs.StartSpan(ctx, obs.SpanCachePut)
	info := st.Put(key, v)
	if sp != nil {
		sp.SetAttr("stage", stage)
		if info.Spilled {
			sp.SetAttr("spilled", "true")
		}
		sp.Finish()
	}
}

// cellKeys derives both per-cell keys from the profile's timing key.
func cellKeys(cfg Config, timingKey string, tech scaling.Technology) (thermalKey, fitKey string, err error) {
	thermalKey, err = thermalKeyFrom(cfg, timingKey, tech)
	if err != nil {
		return "", "", err
	}
	in, err := fitInputsFor(cfg, thermalKey)
	if err != nil {
		return "", "", err
	}
	fitKey, err = hashKey(in)
	return thermalKey, fitKey, err
}
