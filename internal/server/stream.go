package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"github.com/ramp-sim/ramp/internal/obs"
	"github.com/ramp-sim/ramp/internal/report"
	"github.com/ramp-sim/ramp/internal/sim"
)

// NDJSON streaming protocol of /v1/study/stream. One JSON object per
// line, discriminated by "event":
//
//	meta      — exactly once, first: schema version, study key, cell
//	            count, and whether the stream replays a cached result.
//	app       — one per completed (application × technology) cell, in
//	            completion order. The cell's RawFIT is uncalibrated;
//	            apply the final study document's constants.
//	heartbeat — emitted on an idle connection every Config.StreamHeartbeat
//	            so proxies do not sever long computations.
//	study     — exactly once on success, last: the same document /v1/study
//	            returns (with meta), calibrated.
//	error     — exactly once on failure, last: the standard error body.
//
// Closing the connection cancels the underlying computation; stages that
// already completed stay in the stage cache, so a repeated request resumes
// rather than restarts.

// streamMetaEvent opens every stream. RequestID (additive) echoes the
// X-Request-ID header for log correlation.
type streamMetaEvent struct {
	SchemaVersion int    `json:"schema_version"`
	Event         string `json:"event"` // "meta"
	RequestID     string `json:"request_id,omitempty"`
	Key           string `json:"key"`
	CellsTotal    int    `json:"cells_total"`
	Cache         string `json:"cache"` // "hit" or "miss"
}

// streamAppEvent carries one completed cell.
type streamAppEvent struct {
	Event  string     `json:"event"` // "app"
	Done   int        `json:"done"`
	Total  int        `json:"total"`
	Source string     `json:"source"`
	App    sim.AppRun `json:"app"`
}

// streamHeartbeatEvent keeps idle connections alive.
type streamHeartbeatEvent struct {
	Event string `json:"event"` // "heartbeat"
}

// streamStudyEvent terminates a successful stream.
type streamStudyEvent struct {
	Event string          `json:"event"` // "study"
	Meta  StudyMeta       `json:"meta"`
	Study report.Document `json:"study"`
}

// streamErrorEvent terminates a failed stream.
type streamErrorEvent struct {
	Event string    `json:"event"` // "error"
	Error ErrorBody `json:"error"`
}

// streamSourceResultCache labels replayed cells of a whole-study cache hit.
const streamSourceResultCache = "result-cache"

// handleStudyStream serves a study incrementally as NDJSON. Admission
// control is the same bounded queue the blocking endpoints use — the slot
// is held for the stream's whole duration — and a completed stream warms
// the same result cache, so blocking and streaming clients coalesce
// against each other's work at both the whole-study and the stage level.
func (s *Server) handleStudyStream(w http.ResponseWriter, r *http.Request) {
	req, err := parseStudyRequest(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	cfg, profiles, techs, err := s.resolve(req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	key, err := sim.StudyKey(cfg, profiles, techs)
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

	// Whole-study cache hit: replay the grid instantly, no admission slot.
	if v, tier := s.cache.Get(key); tier.Hit() {
		s.obs.streams.Inc()
		res := v.(*sim.StudyResult)
		if s.ledger != nil {
			s.appendRun(s.newRunRecord(r.Context(), "study.stream", key, cfg,
				len(profiles), served, obs.ResultHit, nil))
		}
		sw := s.newStreamWriter(w, flusher)
		sw.send(streamMetaEvent{SchemaVersion: SchemaVersion, Event: "meta",
			RequestID: reqID, Key: key, CellsTotal: cellsTotal, Cache: "hit"})
		for i, a := range res.Apps {
			sw.send(streamAppEvent{"app", i + 1, len(res.Apps), streamSourceResultCache, a})
		}
		sw.send(streamStudyEvent{"study", StudyMeta{Key: key, Cache: "hit"},
			report.BuildDocument(res)})
		return
	}

	// Admit or shed. The slot spans the whole stream so MaxQueue bounds
	// streaming and blocking computations together.
	select {
	case s.admission <- struct{}{}:
		defer func() { <-s.admission }()
	default:
		s.writeRetryAfter(w)
		s.writeError(w, http.StatusTooManyRequests, CodeOverloaded,
			errors.New("server overloaded, retry later"))
		return
	}
	s.obs.streams.Inc()
	s.obs.studies.Inc()
	s.logger.Info("stream start", "request_id", reqID, "key", key)

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
	// Streaming runs the study directly (no flight), so its spans feed the
	// handler's RunStats straight off this context's tracer.
	sinks := []obs.SpanSink{s.obs.sink, collector}
	var stats *obs.RunStats
	if s.ledger != nil {
		stats = obs.NewRunStats()
		sinks = append(sinks, stats)
	}
	ctx = obs.WithTracer(ctx, obs.NewTracer(obs.MultiSink(sinks...)))

	sw := s.newStreamWriter(w, flusher)
	sw.send(streamMetaEvent{SchemaVersion: SchemaVersion, Event: "meta",
		RequestID: reqID, Key: key, CellsTotal: cellsTotal, Cache: "miss"})

	// Workers publish cells into a grid-sized buffer, so a slow reader
	// never stalls the simulation; the writer loop below drains it.
	events := make(chan sim.AppEvent, cellsTotal)
	done := make(chan struct{})
	var res *sim.StudyResult
	var runErr error
	start := s.now()
	go func() {
		defer close(done)
		res, runErr = s.runStudy(ctx, cfg, profiles, techs, sim.StudyOptions{
			Parallelism: s.cfg.Parallelism,
			Metrics:     s.schedRec,
			Cache:       s.stageCache,
			OnApp: func(ev sim.AppEvent) {
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
			sw.send(streamAppEvent{"app", ev.CellsDone, ev.CellsTotal, ev.Source, ev.Run})
		case <-heartbeat.C:
			sw.send(streamHeartbeatEvent{"heartbeat"})
		case <-done:
			// The study has returned; every OnApp send has either landed
			// in the buffer or been abandoned on cancellation.
			for drained := false; !drained; {
				select {
				case ev := <-events:
					sw.send(streamAppEvent{"app", ev.CellsDone, ev.CellsTotal, ev.Source, ev.Run})
				default:
					drained = true
				}
			}
			if s.ledger != nil {
				rec := s.newRunRecord(ctx, "study.stream", key, cfg,
					len(profiles), start, obs.ResultMiss, runErr)
				stats.Fill(&rec)
				s.appendRun(rec)
			}
			if runErr != nil {
				s.logger.Warn("stream failed", "request_id", reqID, "key", key,
					"error", runErr.Error())
				_, code, msg := s.studyErrorStatus(runErr)
				sw.send(streamErrorEvent{"error", ErrorBody{Code: code, Message: msg.Error()}})
				return
			}
			s.traces.Add(obs.TraceEntry{
				Key: key, RequestID: reqID, CapturedAt: s.now(), Spans: collector.Spans()})
			s.cache.Put(key, res)
			meta := StudyMeta{Key: key, Cache: "miss",
				ComputeMS: float64(s.now().Sub(start)) / float64(time.Millisecond)}
			s.logger.Info("stream done", "request_id", reqID, "key", key,
				"compute_ms", meta.ComputeMS)
			sw.send(streamStudyEvent{"study", meta, report.BuildDocument(res)})
			return
		}
	}
}

// streamWriter serialises NDJSON events and flushes after each one. Write
// errors latch: once the client is gone every later send is a no-op and
// the handler unwinds via context cancellation.
type streamWriter struct {
	enc     *json.Encoder
	flusher http.Flusher
	events  *obs.CounterVec // sent events by type; nil disables counting
	failed  bool
}

func (s *Server) newStreamWriter(w http.ResponseWriter, f http.Flusher) *streamWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	return &streamWriter{enc: json.NewEncoder(w), flusher: f, events: s.obs.streamEvents}
}

func (sw *streamWriter) send(v any) {
	if sw.failed {
		return
	}
	if err := sw.enc.Encode(v); err != nil {
		sw.failed = true
		return
	}
	sw.flusher.Flush()
	if sw.events != nil {
		sw.events.With(streamEventName(v)).Inc()
	}
}

// streamEventName maps a wire event to its metrics label.
func streamEventName(v any) string {
	switch v.(type) {
	case streamMetaEvent:
		return "meta"
	case streamAppEvent:
		return "app"
	case streamHeartbeatEvent:
		return "heartbeat"
	case streamStudyEvent:
		return "study"
	case batchMetaEvent:
		return "meta"
	case batchJobEvent:
		return "job"
	case batchDoneEvent:
		return "batch"
	case mcMetaEvent:
		return "meta"
	case mcProgressEvent:
		return "mc_progress"
	case mcCellEvent:
		return "mc_cell"
	case mcResultEvent:
		return "mc"
	case opsMetaEvent:
		return "meta"
	case opsRunEvent:
		return "run"
	case streamErrorEvent:
		return "error"
	default:
		return "unknown"
	}
}
