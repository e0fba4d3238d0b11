// Command rampstat is a live terminal view of a running rampd: it tails
// the cost ledger over GET /v1/ops/tail (NDJSON) and polls /metrics,
// rendering queue depth, worker occupancy, stage-cache hit rates, and the
// slowest recent runs — the "what is the service doing right now" answer
// without a metrics stack.
//
// Usage:
//
//	rampstat [-addr http://localhost:8080] [-interval 2s] [-n 10]
//	         [-window 200] [-once] [-no-clear]
//
// -once fetches the current state (GET /v1/ops/runs), renders a single
// frame to stdout, and exits — the scripting/CI mode. Otherwise rampstat
// streams until interrupted, redrawing every -interval and on every run
// completion. -window bounds how many recent records feed the aggregates;
// -n bounds the slowest-runs table.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/ramp-sim/ramp/internal/cli"
	"github.com/ramp-sim/ramp/internal/obs"
)

func main() {
	ctx, stop := cli.SignalContext(context.Background())
	defer stop()
	if err := run(ctx, os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rampstat:", err)
		os.Exit(1)
	}
}

// tailEvent is one line of /v1/ops/tail (a superset of the event shapes:
// meta carries Ledger, run carries Run, heartbeats carry neither).
type tailEvent struct {
	Event  string           `json:"event"`
	Run    obs.RunRecord    `json:"run"`
	Ledger *obs.LedgerStats `json:"ledger"`
}

// state is everything one frame renders: the recent-run window plus the
// latest /metrics snapshot. It is owned by the event loop — no locking.
type state struct {
	window int
	recent []obs.RunRecord // oldest first, bounded by window
	ledger obs.LedgerStats
	gauges map[string]any // decoded /metrics JSON; nil until first poll
}

func newState(window int) *state { return &state{window: window} }

// add appends one run record, evicting the oldest past the window.
func (st *state) add(rec obs.RunRecord) {
	st.recent = append(st.recent, rec)
	if len(st.recent) > st.window {
		st.recent = st.recent[len(st.recent)-st.window:]
	}
}

func run(ctx context.Context, out io.Writer, args []string) error {
	fs := flag.NewFlagSet("rampstat", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", "http://localhost:8080", "rampd base URL")
	interval := fs.Duration("interval", 2*time.Second, "redraw and /metrics poll interval")
	slowest := fs.Int("n", 10, "slowest recent runs shown")
	window := fs.Int("window", 200, "recent run records feeding the aggregates")
	once := fs.Bool("once", false, "render one frame from current state and exit")
	noClear := fs.Bool("no-clear", false, "do not clear the terminal between frames")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := strings.TrimRight(*addr, "/")
	client := &http.Client{}
	st := newState(*window)

	if *once {
		if err := fetchRuns(ctx, client, base, st); err != nil {
			return err
		}
		st.gauges, _ = fetchMetrics(ctx, client, base) // best-effort
		render(out, st, *slowest, time.Now())
		return nil
	}

	// Live mode: one goroutine reads the tail stream, the loop below owns
	// the state and the terminal.
	events := make(chan tailEvent, 64)
	errc := make(chan error, 1)
	go func() { errc <- tailRuns(ctx, client, base, st.window, events) }()

	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	st.gauges, _ = fetchMetrics(ctx, client, base)
	draw := func() {
		if !*noClear {
			fmt.Fprint(out, "\033[H\033[2J")
		}
		render(out, st, *slowest, time.Now())
	}
	draw()
	for {
		select {
		case <-ctx.Done():
			return nil
		case err := <-errc:
			if ctx.Err() != nil {
				return nil
			}
			return err
		case ev := <-events:
			switch ev.Event {
			case "run":
				st.add(ev.Run)
				draw()
			case "meta":
				if ev.Ledger != nil {
					st.ledger = *ev.Ledger
				}
			}
		case <-ticker.C:
			if g, err := fetchMetrics(ctx, client, base); err == nil {
				st.gauges = g
			}
			draw()
		}
	}
}

// fetchRuns loads the current ledger contents via GET /v1/ops/runs.
func fetchRuns(ctx context.Context, client *http.Client, base string, st *state) error {
	var body struct {
		Ledger obs.LedgerStats `json:"ledger"`
		Runs   []obs.RunRecord `json:"runs"`
	}
	if err := getJSON(ctx, client, fmt.Sprintf("%s/v1/ops/runs?limit=%d", base, st.window), &body); err != nil {
		return err
	}
	st.ledger = body.Ledger
	for i := len(body.Runs) - 1; i >= 0; i-- { // newest-first → oldest-first
		st.add(body.Runs[i])
	}
	return nil
}

// tailRuns streams GET /v1/ops/tail into the events channel until the
// context ends or the connection drops.
func tailRuns(ctx context.Context, client *http.Client, base string, replay int, events chan<- tailEvent) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/ops/tail?replay=%d", base, replay), nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /v1/ops/tail: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		var ev tailEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // tolerate unknown lines; the schema is append-only
		}
		select {
		case events <- ev:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return sc.Err()
}

// getJSON fetches url and decodes the JSON body into v.
func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// fetchMetrics polls the JSON form of /metrics.
func fetchMetrics(ctx context.Context, client *http.Client, base string) (map[string]any, error) {
	var m map[string]any
	if err := getJSON(ctx, client, base+"/metrics", &m); err != nil {
		return nil, err
	}
	return m, nil
}

// num digs a numeric leaf out of decoded JSON by key path.
func num(m map[string]any, path ...string) (float64, bool) {
	cur := any(m)
	for _, k := range path {
		obj, ok := cur.(map[string]any)
		if !ok {
			return 0, false
		}
		cur, ok = obj[k]
		if !ok {
			return 0, false
		}
	}
	f, ok := cur.(float64)
	return f, ok
}

// render writes one frame: ledger totals, queue/worker/runtime gauges,
// cache hit rates over the window, and the slowest recent runs.
func render(w io.Writer, st *state, slowest int, now time.Time) {
	fmt.Fprintf(w, "rampd ops — %s\n", now.Format("15:04:05"))

	// Outcome and result-cache tallies over the window.
	outcomes := map[string]int{}
	results := map[string]int{}
	caches := map[string]obs.CacheCost{}
	for _, r := range st.recent {
		outcomes[r.Outcome]++
		if r.ResultCache != "" {
			results[r.ResultCache]++
		}
		for name, c := range r.Cache {
			agg := caches[name]
			agg.Hits += c.Hits
			agg.Misses += c.Misses
			agg.Puts += c.Puts
			agg.Spills += c.Spills
			agg.DiskHits += c.DiskHits
			caches[name] = agg
		}
	}
	fmt.Fprintf(w, "runs: %d recorded, %d in window (ok %d, error %d, cancelled %d, deadline %d)\n",
		st.ledger.Appended, len(st.recent),
		outcomes[obs.RunOK], outcomes[obs.RunError],
		outcomes[obs.RunCancelled], outcomes[obs.RunDeadline])
	fmt.Fprintf(w, "result cache: hit %d, coalesced %d, miss %d\n",
		results[obs.ResultHit], results[obs.ResultCoalesced], results[obs.ResultMiss])

	if st.gauges != nil {
		admit, _ := num(st.gauges, "admission_queue_depth")
		admitCap, _ := num(st.gauges, "admission_capacity")
		queued, _ := num(st.gauges, "jobs", "queued")
		running, _ := num(st.gauges, "jobs", "running")
		inflight, _ := num(st.gauges, "sched", "in_flight")
		depth, _ := num(st.gauges, "sched", "queue_depth")
		fmt.Fprintf(w, "queues: admission %.0f/%.0f · jobs queued %.0f running %.0f · sched ready %.0f in-flight %.0f\n",
			admit, admitCap, queued, running, depth, inflight)
		if goroutines, ok := num(st.gauges, "runtime", "goroutines"); ok {
			heap, _ := num(st.gauges, "runtime", "heap_bytes")
			gc, _ := num(st.gauges, "runtime", "gc_pause_total_seconds")
			fmt.Fprintf(w, "runtime: %.0f goroutines · heap %.1f MiB · gc pause %.3fs total\n",
				goroutines, heap/(1<<20), gc)
		}
	}

	if len(caches) > 0 {
		names := make([]string, 0, len(caches))
		for name := range caches {
			names = append(names, name)
		}
		sort.Strings(names)
		parts := make([]string, 0, len(names))
		for _, name := range names {
			c := caches[name]
			total := c.Hits + c.Misses
			rate := 0.0
			if total > 0 {
				rate = 100 * float64(c.Hits) / float64(total)
			}
			part := fmt.Sprintf("%s %.0f%% (%d/%d)", name, rate, c.Hits, total)
			if c.DiskHits > 0 {
				part += fmt.Sprintf(" disk %d", c.DiskHits)
			}
			parts = append(parts, part)
		}
		fmt.Fprintf(w, "stage caches: %s\n", strings.Join(parts, " · "))
	}

	// Slowest runs in the window, by wall time.
	byWall := append([]obs.RunRecord(nil), st.recent...)
	sort.SliceStable(byWall, func(i, j int) bool { return byWall[i].WallMS > byWall[j].WallMS })
	if len(byWall) > slowest {
		byWall = byWall[:slowest]
	}
	if len(byWall) > 0 {
		fmt.Fprintf(w, "\n%4s  %-12s %-10s %-9s %9s %9s %8s  %s\n",
			"ID", "KIND", "OUTCOME", "CACHE", "WALL ms", "CPU ms", "QUEUE ms", "KEY")
		for _, r := range byWall {
			fmt.Fprintf(w, "%4d  %-12s %-10s %-9s %9.1f %9.1f %8.1f  %s\n",
				r.ID, r.Kind, r.Outcome, r.ResultCache, r.WallMS, r.CPUMS, r.QueueMS, short(r.Key))
		}
	}
}

// short abbreviates a content-address key for table display.
func short(key string) string {
	if len(key) > 20 {
		return key[:20] + "…"
	}
	return key
}
