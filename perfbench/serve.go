package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ramp-sim/ramp/internal/report"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/server"
	"github.com/ramp-sim/ramp/internal/sim"
	"github.com/ramp-sim/ramp/internal/workload"
)

// serveKeys are the studies the warm server holds: four application sets
// at two trace lengths. Small traces keep the prefill short; a warm
// request never simulates, so the trace length only sets response size.
var serveKeys = func() []serveKey {
	sets := [][]string{{"ammp", "mesa"}, {"gzip", "crafty"}, {"mesa", "gzip"}, coldApps}
	var keys []serveKey
	for _, n := range []int64{100_000, 120_000} {
		for _, apps := range sets {
			keys = append(keys, serveKey{apps: apps, instrs: n})
		}
	}
	return keys
}()

type serveKey struct {
	apps   []string
	instrs int64
}

// Request kinds of the mix, drawn with equal weight.
const (
	kindGetStudy = iota
	kindPostStudy
	kindGetMTTF
	numKinds
)

var kindNames = [numKinds]string{"GET /v1/study", "POST /v1/study", "GET /v1/mttf"}

// serveFixture is one running in-process rampd with a warm result cache.
type serveFixture struct {
	srv     *server.Server
	http    *http.Server
	done    chan error
	handler *timedHandler
	base    string
	reg     *workload.Registry
	cfg     sim.Config
	// ref holds the verified reply body per (kind, key).
	ref [numKinds][][]byte
}

// timedHandler times the server's handler when enabled, so server time
// can be told apart from client and transport time.
type timedHandler struct {
	h       http.Handler
	enabled atomic.Bool
	ns      atomic.Int64
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.enabled.Load() {
		t.h.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	t.h.ServeHTTP(w, r)
	t.ns.Add(int64(time.Since(start)))
}

func newServeFixture(ctx context.Context, o options) (*serveFixture, error) {
	profs := workload.Profiles()
	for i := range profs {
		profs[i].Seed += o.seed
	}
	reg, err := workload.NewRegistry(profs...)
	if err != nil {
		return nil, err
	}
	cfg := sim.DefaultConfig()
	srv, err := server.New(server.Config{Sim: cfg, Registry: reg, Parallelism: o.workers,
		CacheSize: 4 * len(serveKeys)})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	f := &serveFixture{srv: srv, done: make(chan error, 1), reg: reg, cfg: cfg,
		handler: &timedHandler{h: srv.Handler()}, base: "http://" + ln.Addr().String()}
	f.http = &http.Server{Handler: f.handler}
	go func() { f.done <- f.http.Serve(ln) }()
	if err := f.prefill(ctx); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *serveFixture) close() {
	_ = f.http.Close()
	<-f.done
	f.srv.Close()
}

// request builds one request of the mix.
func (f *serveFixture) request(ctx context.Context, kind int, k serveKey) (*http.Request, error) {
	q := url.Values{"apps": {strings.Join(k.apps, ",")}, "instructions": {strconv.FormatInt(k.instrs, 10)}}
	switch kind {
	case kindPostStudy:
		body, err := json.Marshal(server.StudyRequest{Apps: k.apps, Instructions: k.instrs})
		if err != nil {
			return nil, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.base+"/v1/study", bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
		return req, err
	case kindGetMTTF:
		return http.NewRequestWithContext(ctx, http.MethodGet, f.base+"/v1/mttf?"+q.Encode(), nil)
	default:
		return http.NewRequestWithContext(ctx, http.MethodGet, f.base+"/v1/study?"+q.Encode(), nil)
	}
}

// do sends one request and reads the whole reply.
func (f *serveFixture) do(ctx context.Context, c *http.Client, kind int, k serveKey) (int, []byte, error) {
	req, err := f.request(ctx, kind, k)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// prefill computes every key once, then records each kind's first warm
// reply as the reference every later reply must equal byte for byte.
func (f *serveFixture) prefill(ctx context.Context) error {
	c := &http.Client{}
	defer c.CloseIdleConnections()
	for _, k := range serveKeys {
		if st, body, err := f.do(ctx, c, kindGetStudy, k); err != nil || st != http.StatusOK {
			return fmt.Errorf("prefill %v: status %d: %v %s", k, st, err, body)
		}
	}
	for kind := 0; kind < numKinds; kind++ {
		f.ref[kind] = make([][]byte, len(serveKeys))
		for i, k := range serveKeys {
			st, body, err := f.do(ctx, c, kind, k)
			if err != nil {
				return err
			}
			if err := checkWarmReply(st, body); err != nil {
				return fmt.Errorf("%s %v: %w", kindNames[kind], k, err)
			}
			f.ref[kind][i] = body
		}
	}
	return nil
}

// checkWarmReply verifies a reply is a 200 at the current schema version
// served from the result cache.
func checkWarmReply(status int, body []byte) error {
	var doc struct {
		SchemaVersion int `json:"schema_version"`
		Meta          struct {
			Cache string `json:"cache"`
		} `json:"meta"`
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return err
	}
	if doc.SchemaVersion != server.SchemaVersion || doc.Meta.Cache != "hit" {
		return fmt.Errorf("schema_version %d cache %q, want %d hit",
			doc.SchemaVersion, doc.Meta.Cache, server.SchemaVersion)
	}
	return nil
}

// loopStats is what one closed-loop window measured.
type loopStats struct {
	lats      []float64 // seconds
	bytes     int64
	perKind   [numKinds][]int // requests per key
	attempted int64
	failed    int64
	failures  []string
	wall      time.Duration
}

// closedLoop runs clients keep-alive clients for d, each sending its next
// request when the previous reply has been read.
func (f *serveFixture) closedLoop(ctx context.Context, clients int, seed int64, d time.Duration) *loopStats {
	per := make([]*loopStats, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for ci := 0; ci < clients; ci++ {
		st := &loopStats{}
		for kind := range st.perKind {
			st.perKind[kind] = make([]int, len(serveKeys))
		}
		per[ci] = st
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			c := &http.Client{Transport: tr}
			rng := rand.New(rand.NewSource(seed*7919 + int64(ci)))
			for time.Now().Before(deadline) {
				kind, ki := rng.Intn(numKinds), rng.Intn(len(serveKeys))
				st.attempted++
				t0 := time.Now()
				status, body, err := f.do(ctx, c, kind, serveKeys[ki])
				lat := time.Since(t0)
				if err == nil && !bytes.Equal(body, f.ref[kind][ki]) {
					err = checkWarmReply(status, body)
					if err == nil {
						err = errors.New("reply differs from the verified reference")
					}
				}
				if err != nil {
					st.failed++
					if len(st.failures) < 5 {
						st.failures = append(st.failures, fmt.Sprintf("%s %v: %v", kindNames[kind], serveKeys[ki], err))
					}
					continue
				}
				st.lats = append(st.lats, lat.Seconds())
				st.bytes += int64(len(body))
				st.perKind[kind][ki]++
			}
		}(ci)
	}
	wg.Wait()
	all := &loopStats{wall: time.Since(start)}
	for kind := range all.perKind {
		all.perKind[kind] = make([]int, len(serveKeys))
	}
	for _, st := range per {
		all.lats = append(all.lats, st.lats...)
		all.bytes += st.bytes
		all.attempted += st.attempted
		all.failed += st.failed
		all.failures = append(all.failures, st.failures...)
		for kind := range st.perKind {
			for i, n := range st.perKind[kind] {
				all.perKind[kind][i] += n
			}
		}
	}
	return all
}

func (st *loopStats) record(out *outcome) {
	out.attempted += st.attempted
	out.failed += st.failed
	for _, f := range st.failures {
		if len(out.failures) < 20 {
			out.failures = append(out.failures, f)
		}
	}
}

func runServe(ctx context.Context, o options, out *outcome) error {
	f, err := setUp(out, func(int) (*serveFixture, error) { return newServeFixture(ctx, o) },
		(*serveFixture).close)
	if err != nil {
		return err
	}
	defer f.close()
	out.note("%d keys, mix of %s, %d closed-loop keep-alive clients",
		len(serveKeys), strings.Join(kindNames[:], " / "), o.workers)
	total := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		return serveTraced(ctx, o, out, f, total)
	}
	// Each window opens fresh connections, so the run samples many
	// placements of client and server goroutines on the CPUs.
	for w := 0; w < windows(total); w++ {
		st := f.closedLoop(ctx, o.workers, o.seed*1000+int64(w), latencyWindow)
		st.record(out)
		out.lats = append(out.lats, st.lats...)
		for range st.lats {
			out.win = append(out.win, w)
		}
		out.window += st.wall
	}
	return nil
}

// serveTraced alternates untraced and handler-timed windows, then splits
// the handler time into key hashing and response building by replaying
// those calls on the same inputs.
func serveTraced(ctx context.Context, o options, out *outcome, f *serveFixture, total time.Duration) error {
	before, err := f.metrics()
	if err != nil {
		return err
	}
	var untraced, traced []float64
	var tracedWall time.Duration
	var bytesSum int64
	var counts [numKinds][]int
	for kind := range counts {
		counts[kind] = make([]int, len(serveKeys))
	}
	for w := 0; w < windows(total); w++ {
		on := w%2 == 1
		f.handler.enabled.Store(on)
		st := f.closedLoop(ctx, o.workers, o.seed*1000+int64(w), latencyWindow)
		st.record(out)
		if !on {
			untraced = append(untraced, st.lats...)
			continue
		}
		traced = append(traced, st.lats...)
		tracedWall += st.wall
		bytesSum += st.bytes
		for kind := range counts {
			for k, n := range st.perKind[kind] {
				counts[kind][k] += n
			}
		}
	}
	f.handler.enabled.Store(false)
	after, err := f.metrics()
	if err != nil {
		return err
	}

	var keysCost, buildCost, encodeCost time.Duration
	var calls int
	for ki, k := range serveKeys {
		cfg, profs, techs, err := f.inputs(k)
		if err != nil {
			return err
		}
		res, err := sim.RunStudyContext(ctx, cfg, profs, techs, sim.StudyOptions{Parallelism: o.workers})
		if err != nil {
			return err
		}
		key, err := sim.StudyKey(cfg, profs, techs)
		if err != nil {
			return err
		}
		keyCost, err := replay(func() error { _, err := sim.StudyKey(cfg, profs, techs); return err })
		if err != nil {
			return err
		}
		meta := server.StudyMeta{Key: key, Cache: "hit"}
		studyBuild, _ := replay(func() error { report.BuildDocument(res); return nil })
		mttfBuild, _ := replay(func() error { report.BuildMTTFSummary(res); return nil })
		studyDoc := server.StudyResponse{SchemaVersion: server.SchemaVersion, Meta: meta, Study: report.BuildDocument(res)}
		mttfDoc := server.MTTFResponse{SchemaVersion: server.SchemaVersion, Meta: meta, MTTF: report.BuildMTTFSummary(res)}
		studyEnc, err := replay(func() error { return encodeIndented(studyDoc) })
		if err != nil {
			return err
		}
		mttfEnc, err := replay(func() error { return encodeIndented(mttfDoc) })
		if err != nil {
			return err
		}
		nStudy := time.Duration(counts[kindGetStudy][ki] + counts[kindPostStudy][ki])
		nMTTF := time.Duration(counts[kindGetMTTF][ki])
		keysCost += keyCost * (nStudy + nMTTF)
		buildCost += studyBuild*nStudy + mttfBuild*nMTTF
		encodeCost += studyEnc*nStudy + mttfEnc*nMTTF
		calls += int(nStudy + nMTTF)
	}

	m := out.layers
	handler := time.Duration(f.handler.ns.Load())
	client := time.Duration(sum(traced) * float64(time.Second))
	self := handler - keysCost - buildCost - encodeCost
	transport := client - handler
	m["keys.study_s"] = keysCost.Seconds()
	m["keys.calls"] = float64(calls)
	m["report.build_s"] = buildCost.Seconds()
	m["report.encode_s"] = encodeCost.Seconds()
	m["report.bytes"] = float64(bytesSum)
	m["server.self_s"] = self.Seconds()
	m["client.transport_s"] = transport.Seconds()
	hits, misses := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses
	m["server.result_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["server.coalesced"] = float64(after.Coalesced - before.Coalesced)
	m["server.shed"] = float64(after.Shed - before.Shed)
	m["obs.ledger_appended"] = float64(after.Ledger.Appended - before.Ledger.Appended)
	m["obs.ledger_dropped"] = float64(after.Ledger.Dropped - before.Ledger.Dropped)
	m["ops.cache_hit_ratio"] = ratio(float64(len(untraced)+len(traced)), float64(out.attempted))
	m["layers.coverage"] = coverage(map[string]time.Duration{
		"keys": keysCost, "build": buildCost, "encode": encodeCost,
		"server": max(self, 0), "transport": max(transport, 0),
	}, time.Duration(o.workers)*tracedWall-client, tracedWall, o.workers)
	m["trace.overhead_pct"] = (median(traced)/median(untraced) - 1) * 100
	out.note("traced windows: %d requests, handler %.3f s of %.3f s client time; p50 %.4f ms (untraced %.4f ms)",
		len(traced), handler.Seconds(), client.Seconds(), median(traced)*1e3, median(untraced)*1e3)
	return nil
}

// windows is the number of latencyWindow windows in total, at least two.
func windows(total time.Duration) int {
	return max(2, int(total/latencyWindow))
}

// inputs resolves a key the way the server resolves the same request.
func (f *serveFixture) inputs(k serveKey) (sim.Config, []workload.Profile, []scaling.Technology, error) {
	cfg := f.cfg
	cfg.Instructions = k.instrs
	profs, err := f.reg.Resolve(k.apps)
	return cfg, profs, scaling.Generations(), err
}

// serverMetrics is the part of the /metrics document the benchmark reads.
type serverMetrics struct {
	Coalesced int64 `json:"coalesced_total"`
	Shed      int64 `json:"shed_total"`
	Cache     struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	Ledger struct {
		Appended int64 `json:"appended"`
		Dropped  int64 `json:"dropped"`
	} `json:"ledger"`
}

// metrics reads /metrics through the handler directly, outside the
// measured loop.
func (f *serveFixture) metrics() (serverMetrics, error) {
	var m serverMetrics
	rec := httptest.NewRecorder()
	f.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return m, fmt.Errorf("/metrics: status %d", rec.Code)
	}
	return m, json.Unmarshal(rec.Body.Bytes(), &m)
}

// encodeIndented encodes v the way the server writes JSON replies.
func encodeIndented(v any) error {
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
