package main

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/ramp-sim/ramp/internal/obs"
	"github.com/ramp-sim/ramp/internal/store"
)

// spanLog keeps every finished span of a traced run in memory.
type spanLog struct {
	mu    sync.Mutex
	spans []*obs.Span
}

// SpanEnded implements obs.SpanSink.
func (l *spanLog) SpanEnded(sp *obs.Span) {
	l.mu.Lock()
	l.spans = append(l.spans, sp)
	l.mu.Unlock()
}

// spanSums aggregates the spans of one traced run by name.
type spanSums struct {
	count map[string]int
	total map[string]time.Duration
	// self is each span's duration less its direct children's, summed
	// per name and clamped at zero per span (children of a parent that
	// fans out run concurrently and can outlast it).
	self map[string]time.Duration
	// byAttr counts spans per name and attribute value, e.g. the number
	// of sim.thermal spans per "app".
	byAttr map[string]map[string]int
}

func (l *spanLog) sums(attr string) spanSums {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := spanSums{
		count:  map[string]int{},
		total:  map[string]time.Duration{},
		self:   map[string]time.Duration{},
		byAttr: map[string]map[string]int{},
	}
	children := map[uint64]time.Duration{}
	for _, sp := range l.spans {
		if sp.Parent != 0 {
			children[sp.Parent] += sp.Duration()
		}
	}
	for _, sp := range l.spans {
		d := sp.Duration()
		s.count[sp.Name]++
		s.total[sp.Name] += d
		if self := d - children[sp.ID]; self > 0 {
			s.self[sp.Name] += self
		}
		for _, a := range sp.Attrs() {
			if a.Key == attr {
				if s.byAttr[sp.Name] == nil {
					s.byAttr[sp.Name] = map[string]int{}
				}
				s.byAttr[sp.Name][a.Value]++
			}
		}
	}
	return s
}

// schedRec is a sched.Recorder that also observes each task's latency and
// queue wait (sched.StageObserver, sched.QueueObserver).
type schedRec struct {
	mu    sync.Mutex
	tasks int
	busy  time.Duration
	waits []float64 // seconds
}

func (r *schedRec) TaskQueued()            {}
func (r *schedRec) TaskStarted()           {}
func (r *schedRec) TaskFinished(err error) {}
func (r *schedRec) TaskAbandoned()         {}

func (r *schedRec) TaskLatency(stage string, d time.Duration, err error) {
	r.mu.Lock()
	r.tasks++
	r.busy += d
	r.mu.Unlock()
}

func (r *schedRec) TaskQueueWait(stage string, d time.Duration) {
	r.mu.Lock()
	r.waits = append(r.waits, d.Seconds())
	r.mu.Unlock()
}

// storeRec counts stage-cache events by operation and outcome.
type storeRec struct {
	memHits, diskHits, misses atomic.Int64
	puts, spills, evictions   atomic.Int64
	// thermalGets and thermalHits count lookups of the thermal stage.
	thermalGets, thermalHits atomic.Int64
}

func (r *storeRec) observe(ev store.Event) {
	switch ev.Op {
	case store.OpGet:
		switch ev.Outcome {
		case store.OutcomeHitMem:
			r.memHits.Add(1)
		case store.OutcomeHitDisk:
			r.diskHits.Add(1)
		default:
			r.misses.Add(1)
		}
		if ev.Store == "thermal" {
			r.thermalGets.Add(1)
			if ev.Outcome != store.OutcomeMiss {
				r.thermalHits.Add(1)
			}
		}
	case store.OpPut:
		r.puts.Add(1)
	case store.OpEvict:
		r.evictions.Add(1)
	case store.OpSpill:
		if ev.Outcome == store.OutcomeOK {
			r.spills.Add(1)
		}
	}
}

// fill writes the store layer's counters into m.
func (r *storeRec) fill(m layerMetrics) {
	m["store.mem_hits"] = float64(r.memHits.Load())
	m["store.disk_hits"] = float64(r.diskHits.Load())
	m["store.misses"] = float64(r.misses.Load())
	m["store.puts"] = float64(r.puts.Load())
	m["store.spills"] = float64(r.spills.Load())
	m["store.evictions"] = float64(r.evictions.Load())
	hits := float64(r.memHits.Load() + r.diskHits.Load())
	m["store.hit_ratio"] = ratio(hits, hits+float64(r.misses.Load()))
}

// replay returns the mean cost of one call of fn, timed over repeated
// calls, for layers whose calls happen inside the program where the
// benchmark cannot time them.
func replay(fn func() error) (time.Duration, error) {
	const reps = 16
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / reps, nil
}

// fillSched writes the scheduler layer's metrics for a traced window.
func fillSched(m layerMetrics, rec *schedRec, wall time.Duration, workers int) {
	m["sched.idle_s"] = idle(rec, wall, workers).Seconds()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	m["sched.tasks"] = float64(rec.tasks)
	m["sched.busy_s"] = rec.busy.Seconds()
	if len(rec.waits) > 0 {
		m["sched.queue_wait_p50_ms"] = median(rec.waits) * 1e3
	}
}

// idle is the worker time no scheduler task used during wall.
func idle(rec *schedRec, wall time.Duration, workers int) time.Duration {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return time.Duration(workers)*wall - rec.busy
}
