package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/ramp-sim/ramp/internal/obs"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/sim"
	"github.com/ramp-sim/ramp/internal/workload"
)

// NDJSON streaming protocol of /v1/study/mc. One JSON object per line,
// discriminated by "event":
//
//	meta        — exactly once, first: schema version, the MC study key,
//	              the underlying deterministic study key, grid size,
//	              replica count, lifetime model, and whether the stream
//	              replays a cached result.
//	mc_progress — zero or more per cell while it samples: a running
//	              estimate whose Samples field is below the requested
//	              count. Estimates tighten as replica batches land.
//	mc_cell     — one per finished (application × technology) cell, in
//	              completion order, carrying its final summary.
//	heartbeat   — emitted on an idle connection every
//	              Config.StreamHeartbeat.
//	mc          — exactly once on success, last: the complete
//	              sim.MCResult plus response meta.
//	error       — exactly once on failure, last: the standard error body.
//
// Closing the connection cancels the sampling. The deterministic study
// feeding the sampler coalesces with identical /v1/study traffic and its
// stages stay in the stage cache, so two MC requests differing only in
// seed or sample count share one simulation.

// MCStudyRequest is the wire form of a Monte Carlo study query: the
// study selection plus the sampling knobs of sim.MCConfig, flattened
// into one JSON object.
type MCStudyRequest struct {
	StudyRequest
	sim.MCConfig
}

// mcMetaEvent opens every MC stream.
type mcMetaEvent struct {
	SchemaVersion int    `json:"schema_version"`
	Event         string `json:"event"` // "meta"
	RequestID     string `json:"request_id,omitempty"`
	Key           string `json:"key"`       // MC study key (seed-dependent)
	StudyKey      string `json:"study_key"` // underlying deterministic study key
	CellsTotal    int    `json:"cells_total"`
	Samples       int    `json:"samples"`
	Model         string `json:"model"`
	Cache         string `json:"cache"` // "hit" or "miss"
}

// mcProgressEvent carries a running estimate for one still-sampling cell.
type mcProgressEvent struct {
	Event     string     `json:"event"` // "mc_progress"
	CellIndex int        `json:"cell_index"`
	Cell      sim.MCCell `json:"cell"`
}

// mcCellEvent carries one finished cell's summary.
type mcCellEvent struct {
	Event     string     `json:"event"` // "mc_cell"
	Done      int        `json:"done"`
	Total     int        `json:"total"`
	CellIndex int        `json:"cell_index"`
	Cell      sim.MCCell `json:"cell"`
}

// mcResultEvent terminates a successful MC stream.
type mcResultEvent struct {
	Event string       `json:"event"` // "mc"
	Meta  StudyMeta    `json:"meta"`
	MC    sim.MCResult `json:"mc"`
}

// mcEventBuffer is the slack beyond one slot per grid cell in the event
// channel, absorbing progress batches while the writer flushes.
const mcEventBuffer = 1024

// parseMCStudyRequest accepts POST application/json bodies and GET query
// parameters (?apps=a,b&techs=x&samples=n&model=m&percentiles=5,50,95&
// ci=0.95&seed=n&batch=n&instructions=n&fidelity=m&mechanisms=em,nbti).
func parseMCStudyRequest(r *http.Request) (MCStudyRequest, error) {
	var req MCStudyRequest
	switch r.Method {
	case http.MethodPost:
		dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return req, fmt.Errorf("bad request body: %w", err)
		}
	case http.MethodGet:
		q := r.URL.Query()
		req.Apps = splitList(q.Get("apps"))
		req.Techs = splitList(q.Get("techs"))
		req.Fidelity = strings.TrimSpace(q.Get("fidelity"))
		req.Mechanisms = splitList(q.Get("mechanisms"))
		if v := q.Get("instructions"); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return req, fmt.Errorf("bad instructions %q", v)
			}
			req.Instructions = n
		}
		if v := q.Get("samples"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return req, fmt.Errorf("bad samples %q", v)
			}
			req.Samples = n
		}
		req.Model = q.Get("model")
		for _, p := range splitList(q.Get("percentiles")) {
			f, err := strconv.ParseFloat(p, 64)
			if err != nil {
				return req, fmt.Errorf("bad percentile %q", p)
			}
			req.Percentiles = append(req.Percentiles, f)
		}
		if v := q.Get("ci"); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return req, fmt.Errorf("bad ci %q", v)
			}
			req.CILevel = f
		}
		if v := q.Get("seed"); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return req, fmt.Errorf("bad seed %q", v)
			}
			req.Seed = n
		}
		if v := q.Get("batch"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return req, fmt.Errorf("bad batch %q", v)
			}
			req.BatchSize = n
		}
	default:
		return req, errors.New("use GET or POST")
	}
	return req, nil
}

// resolveMC turns a wire MC request into concrete inputs: the study
// resolution of resolve plus a normalized, validated MCConfig held under
// the server's replica caps.
func (s *Server) resolveMC(req MCStudyRequest) (sim.Config, []workload.Profile,
	[]scaling.Technology, sim.MCConfig, error) {
	cfg, profiles, techs, err := s.resolve(req.StudyRequest)
	if err != nil {
		return cfg, nil, nil, sim.MCConfig{}, err
	}
	mcfg := req.MCConfig.Normalized()
	if err := mcfg.Validate(); err != nil {
		return cfg, nil, nil, mcfg, err
	}
	if mcfg.Samples > s.cfg.MaxMCSamples {
		return cfg, nil, nil, mcfg, fmt.Errorf("samples %d exceeds the server cap %d",
			mcfg.Samples, s.cfg.MaxMCSamples)
	}
	if cells := len(profiles) * len(techs); mcfg.Samples*cells > s.cfg.MaxMCReplicas {
		return cfg, nil, nil, mcfg, fmt.Errorf(
			"total replicas %d (%d samples × %d grid cells) exceeds the server cap %d; "+
				"reduce samples or narrow apps/techs",
			mcfg.Samples*cells, mcfg.Samples, cells, s.cfg.MaxMCReplicas)
	}
	return cfg, profiles, techs, mcfg, nil
}

// handleStudyMC serves a Monte Carlo lifetime study incrementally as
// NDJSON. The admission slot is held for the stream's whole duration, so
// the deterministic study underneath runs through the shared flight group
// without re-admitting (admit=false) — blocking, streaming, and MC
// clients all coalesce against each other's simulations.
func (s *Server) handleStudyMC(w http.ResponseWriter, r *http.Request) {
	req, err := parseMCStudyRequest(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	cfg, profiles, techs, mcfg, err := s.resolveMC(req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	studyKey, err := sim.StudyKey(cfg, profiles, techs)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	mcKey, err := sim.MCStudyKey(cfg, mcfg, profiles, techs)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, CodeInternal,
			errors.New("streaming unsupported by connection"))
		return
	}
	cellsTotal := len(profiles) * len(techs)
	reqID := obs.RequestIDFrom(r.Context())
	served := s.now()

	// Whole-result cache hit: replay the cell summaries instantly, no
	// admission slot.
	if v, tier := s.cache.Get(mcKey); tier.Hit() {
		s.obs.mcStudies.Inc()
		res := v.(*sim.MCResult)
		if s.ledger != nil {
			rec := s.newRunRecord(r.Context(), "mc", mcKey, cfg, len(profiles),
				served, obs.ResultHit, nil)
			rec.Replicas = res.TotalReplicas
			s.appendRun(rec)
		}
		sw := s.newStreamWriter(w, flusher)
		sw.send(mcMetaEvent{SchemaVersion: SchemaVersion, Event: "meta", RequestID: reqID,
			Key: mcKey, StudyKey: studyKey, CellsTotal: cellsTotal,
			Samples: mcfg.Samples, Model: mcfg.Model, Cache: "hit"})
		for i, c := range res.Cells {
			sw.send(mcCellEvent{"mc_cell", i + 1, len(res.Cells), i, c})
		}
		sw.send(mcResultEvent{"mc", StudyMeta{Key: mcKey, Cache: "hit"}, *res})
		return
	}

	// Admit or shed. The slot spans the stream: study plus sampling.
	select {
	case s.admission <- struct{}{}:
		defer func() { <-s.admission }()
	default:
		s.writeRetryAfter(w)
		s.writeError(w, http.StatusTooManyRequests, CodeOverloaded,
			errors.New("server overloaded, retry later"))
		return
	}
	s.obs.mcStudies.Inc()
	s.logger.Info("mc start", "request_id", reqID, "key", mcKey,
		"study_key", studyKey, "samples", mcfg.Samples, "model", mcfg.Model)

	// The computation lives under the request context (client disconnect
	// cancels it) and dies with the server's base context on Close.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()
	if s.cfg.ComputeTimeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, s.cfg.ComputeTimeout)
		defer tcancel()
	}
	collector := obs.NewCollector(s.cfg.TraceSpanLimit)
	// The sampler's spans (MC batches, cache traffic) feed the handler's
	// RunStats; the deterministic study underneath reports its own stats
	// from the flight, merged below.
	sinks := []obs.SpanSink{s.obs.sink, collector}
	var stats *obs.RunStats
	if s.ledger != nil {
		stats = obs.NewRunStats()
		sinks = append(sinks, stats)
	}
	ctx = obs.WithTracer(ctx, obs.NewTracer(obs.MultiSink(sinks...)))

	sw := s.newStreamWriter(w, flusher)
	sw.send(mcMetaEvent{SchemaVersion: SchemaVersion, Event: "meta", RequestID: reqID,
		Key: mcKey, StudyKey: studyKey, CellsTotal: cellsTotal,
		Samples: mcfg.Samples, Model: mcfg.Model, Cache: "miss"})

	// Workers publish estimates into a buffered channel so a slow reader
	// never stalls the sampling; the writer loop below drains it.
	events := make(chan sim.MCEvent, cellsTotal+mcEventBuffer)
	done := make(chan struct{})
	var res *sim.MCResult
	var flightStats *obs.RunStats
	var runErr error
	start := s.now()
	go func() {
		defer close(done)
		// The deterministic study coalesces with any identical in-flight
		// request; admit=false because this stream already holds a slot.
		base, _, fstats, err := s.studyFlight(ctx, cfg, profiles, techs, studyKey, false, nil)
		flightStats = fstats
		if err != nil {
			runErr = err
			return
		}
		res, runErr = sim.MonteCarloStudy(ctx, base, mcfg, sim.MCOptions{
			Parallelism: s.cfg.Parallelism,
			Metrics:     s.schedRec,
			OnEvent: func(ev sim.MCEvent) {
				select {
				case events <- ev:
				case <-ctx.Done():
				}
			},
		})
	}()

	heartbeat := time.NewTicker(s.cfg.StreamHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case ev := <-events:
			sw.send(mcEventWire(ev))
		case <-heartbeat.C:
			sw.send(streamHeartbeatEvent{"heartbeat"})
		case <-done:
			// The sampler has returned; every OnEvent send has either
			// landed in the buffer or been abandoned on cancellation.
			for drained := false; !drained; {
				select {
				case ev := <-events:
					sw.send(mcEventWire(ev))
				default:
					drained = true
				}
			}
			if s.ledger != nil {
				rec := s.newRunRecord(ctx, "mc", mcKey, cfg, len(profiles),
					start, obs.ResultMiss, runErr)
				if flightStats != nil {
					flightStats.Fill(&rec)
				}
				stats.Fill(&rec)
				if res != nil {
					rec.Replicas = res.TotalReplicas
				}
				s.appendRun(rec)
			}
			if runErr != nil {
				s.logger.Warn("mc failed", "request_id", reqID, "key", mcKey,
					"error", runErr.Error())
				_, code, msg := s.studyErrorStatus(runErr)
				sw.send(streamErrorEvent{"error", ErrorBody{Code: code, Message: msg.Error()}})
				return
			}
			s.traces.Add(obs.TraceEntry{
				Key: mcKey, RequestID: reqID, CapturedAt: s.now(), Spans: collector.Spans()})
			s.cache.Put(mcKey, res)
			s.obs.mcReplicas.Add(uint64(res.TotalReplicas))
			meta := StudyMeta{Key: mcKey, Cache: "miss",
				ComputeMS: float64(s.now().Sub(start)) / float64(time.Millisecond)}
			s.logger.Info("mc done", "request_id", reqID, "key", mcKey,
				"replicas", res.TotalReplicas, "compute_ms", meta.ComputeMS)
			sw.send(mcResultEvent{"mc", meta, *res})
			return
		}
	}
}

// mcEventWire maps a sampler event to its wire form.
func mcEventWire(ev sim.MCEvent) any {
	if ev.Final {
		return mcCellEvent{"mc_cell", ev.CellsDone, ev.CellsTotal, ev.CellIndex, ev.Cell}
	}
	return mcProgressEvent{"mc_progress", ev.CellIndex, ev.Cell}
}
