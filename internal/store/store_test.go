package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

type artifact struct {
	Name string    `json:"name"`
	Vals []float64 `json:"vals"`
}

// testCodec is a JSON payload codec for the store's own tests; the stage
// stores' codecs live with their artifacts in internal/sim.
func testCodec[T any]() Codec[T] {
	return Codec[T]{
		Schema:  7,
		Version: 3,
		Encode: func(dst []byte, v T) ([]byte, error) {
			b, err := json.Marshal(v)
			return append(dst, b...), err
		},
		Decode: func(b []byte) (T, error) {
			var v T
			err := json.Unmarshal(b, &v)
			return v, err
		},
	}
}

// lookup is Get reduced to the comma-ok form.
func lookup[T any](s *Store[T], key string) (T, bool) {
	v, tier := s.Get(key)
	return v, tier.Hit()
}

func key(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
	return hex.EncodeToString(sum[:])
}

func TestStoreMemoryRoundTrip(t *testing.T) {
	s, err := New[artifact]("t", Options{MaxEntries: 4}, testCodec[artifact]())
	if err != nil {
		t.Fatal(err)
	}
	want := artifact{Name: "a", Vals: []float64{1, 2.5}}
	s.Put(key(1), want)
	got, ok := lookup(s, key(1))
	if !ok || got.Name != "a" || len(got.Vals) != 2 {
		t.Fatalf("get = %+v, %v", got, ok)
	}
	if _, ok := lookup(s, key(2)); ok {
		t.Fatal("phantom hit")
	}
	st := s.Stats()
	if st.MemHits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s, err := New[int]("t", Options{MaxEntries: 2}, testCodec[int]())
	if err != nil {
		t.Fatal(err)
	}
	s.Put(key(1), 1)
	s.Put(key(2), 2)
	if _, ok := lookup(s, key(1)); !ok { // promote 1; 2 becomes LRU
		t.Fatal("missing 1")
	}
	s.Put(key(3), 3)
	if _, ok := lookup(s, key(2)); ok {
		t.Fatal("2 should have been evicted")
	}
	if _, ok := lookup(s, key(1)); !ok {
		t.Fatal("1 should have survived")
	}
	if st := s.Stats(); st.Evicted != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreRejectsBadKeys(t *testing.T) {
	s, err := New[int]("t", Options{}, Codec[int]{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"", "short", "../../../../etc/passwd", "ZZZZZZZZZZZZZZZZZZ"} {
		s.Put(k, 1)
		if _, ok := lookup(s, k); ok {
			t.Fatalf("bad key %q accepted", k)
		}
		if s.Contains(k) {
			t.Fatalf("bad key %q contained", k)
		}
	}
	if s.Len() != 0 {
		t.Fatal("bad keys stored")
	}
}

func TestStoreDiskSpill(t *testing.T) {
	dir := t.TempDir()
	s, err := New[artifact]("thermal", Options{MaxEntries: 1, Dir: dir}, testCodec[artifact]())
	if err != nil {
		t.Fatal(err)
	}
	s.Put(key(1), artifact{Name: "one"})
	s.Put(key(2), artifact{Name: "two"}) // evicts 1 from memory; disk keeps it
	if got, ok := lookup(s, key(1)); !ok || got.Name != "one" {
		t.Fatalf("disk tier lost key 1: %+v, %v", got, ok)
	}
	if st := s.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// A fresh store over the same directory starts warm.
	s2, err := New[artifact]("thermal", Options{MaxEntries: 4, Dir: dir}, testCodec[artifact]())
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Contains(key(2)) {
		t.Fatal("fresh store does not see spilled artifact")
	}
	if got, ok := lookup(s2, key(2)); !ok || got.Name != "two" {
		t.Fatalf("fresh store get = %+v, %v", got, ok)
	}

	// No temp files left behind.
	matches, _ := filepath.Glob(filepath.Join(dir, "thermal", ".tmp-*"))
	if len(matches) != 0 {
		t.Fatalf("leftover temp files: %v", matches)
	}
}

func TestStoreDiskCorruptionDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := New[artifact]("x", Options{MaxEntries: 1, Dir: dir}, testCodec[artifact]())
	if err != nil {
		t.Fatal(err)
	}
	s.Put(key(1), artifact{Name: "one"})
	s.Put(key(2), artifact{Name: "two"}) // push 1 to disk only
	if err := os.WriteFile(filepath.Join(dir, "x", key(1)+".bin"), []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := lookup(s, key(1)); ok {
		t.Fatal("corrupt artifact served")
	}
	if st := s.Stats(); st.DiskFailures != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The undecodable file is quarantined: a second lookup is a plain
	// miss that re-reads nothing, and the key is no longer reported.
	if _, ok := lookup(s, key(1)); ok {
		t.Fatal("corrupt artifact served on second lookup")
	}
	if st := s.Stats(); st.DiskFailures != 1 || st.Misses != 2 {
		t.Fatalf("stats after second lookup = %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "x", key(1)+".bin")); !os.IsNotExist(err) {
		t.Fatalf("corrupt spill file still present: %v", err)
	}
	if s.Contains(key(1)) {
		t.Fatal("quarantined key still contained")
	}
}

// TestStoreTTLExpiry pins TTL expiry: an entry is live strictly before
// its deadline, expires on it as a counted miss, is refreshed by a
// re-Put, and Peek neither counts nor serves an expired entry.
func TestStoreTTLExpiry(t *testing.T) {
	clock := time.Unix(1_000_000, 0)
	now := func() time.Time { return clock }
	s, err := New[string]("result", Options{MaxEntries: 8, TTL: time.Minute, Now: now}, Codec[string]{})
	if err != nil {
		t.Fatal(err)
	}
	s.Put(key(1), "v")
	clock = clock.Add(time.Minute - time.Nanosecond)
	if v, ok := s.Peek(key(1)); !ok || v != "v" {
		t.Fatal("peek missed a live entry")
	}
	if _, ok := lookup(s, key(1)); !ok {
		t.Fatal("entry expired before its TTL")
	}
	clock = clock.Add(time.Nanosecond) // exactly on the deadline
	if _, ok := s.Peek(key(1)); ok {
		t.Fatal("peek served an expired entry")
	}
	if s.Contains(key(1)) {
		t.Fatal("expired entry contained")
	}
	if st := s.Stats(); st.MemHits != 1 || st.Misses != 0 || st.Expired != 0 || st.Entries != 1 {
		t.Fatalf("peek or contains touched the counters: %+v", st)
	}
	if _, ok := lookup(s, key(1)); ok {
		t.Fatal("entry served on its deadline")
	}
	if st := s.Stats(); st.Expired != 1 || st.Misses != 1 || st.Entries != 0 {
		t.Fatalf("stats after expiry = %+v", st)
	}
	if _, ok := lookup(s, key(1)); ok {
		t.Fatal("expired entry resurrected")
	}
	if st := s.Stats(); st.Expired != 1 || st.Misses != 2 {
		t.Fatalf("second miss re-counted expiry: %+v", st)
	}

	// Re-putting restarts the TTL.
	s.Put(key(2), "old")
	clock = clock.Add(30 * time.Second)
	s.Put(key(2), "new")
	clock = clock.Add(45 * time.Second)
	if v, ok := lookup(s, key(2)); !ok || v != "new" {
		t.Fatalf("refreshed entry = %q, %v", v, ok)
	}

	// A spilled file would outlive its TTL, so the two are exclusive.
	if _, err := New[string]("result", Options{TTL: time.Minute, Dir: t.TempDir()},
		testCodec[string]()); err == nil {
		t.Fatal("TTL with a spill directory accepted")
	}
}

func TestStoreConcurrent(t *testing.T) {
	s, err := New[int]("t", Options{MaxEntries: 8, Dir: t.TempDir()}, testCodec[int]())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := key(i % 16)
				s.Put(k, i)
				if v, ok := lookup(s, k); ok && v < 0 {
					t.Error("impossible value")
				}
				s.Contains(k)
			}
		}(g)
	}
	wg.Wait()
}

func TestStoreNeedsNameAndCodecForSpill(t *testing.T) {
	if _, err := New[int]("", Options{}, testCodec[int]()); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := New[int]("x", Options{Dir: t.TempDir()}, Codec[int]{}); err == nil {
		t.Fatal("spill without codec accepted")
	}
}

// eventLog is a concurrency-safe Observer recording events by label.
type eventLog struct {
	mu     sync.Mutex
	counts map[string]int
}

func (l *eventLog) observe(ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.counts == nil {
		l.counts = make(map[string]int)
	}
	l.counts[ev.Store+"/"+ev.Op+"/"+ev.Outcome]++
}

func (l *eventLog) get(label string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counts[label]
}

// TestStoreObserverEvents pins the observer contract: one event per
// operation, with outcomes distinguishing the memory tier, the disk tier,
// misses, evictions, and spills.
func TestStoreObserverEvents(t *testing.T) {
	dir := t.TempDir()
	log := &eventLog{}
	s, err := New[artifact]("tstage", Options{MaxEntries: 2, Dir: dir, Observer: log.observe}, testCodec[artifact]())
	if err != nil {
		t.Fatal(err)
	}

	s.Put(key(1), artifact{Name: "a"})
	s.Put(key(2), artifact{Name: "b"})
	s.Put(key(3), artifact{Name: "c"}) // evicts key(1) from memory
	if _, ok := lookup(s, key(3)); !ok {
		t.Fatal("expected mem hit")
	}
	if _, ok := lookup(s, key(1)); !ok { // disk promote, evicts again
		t.Fatal("expected disk hit")
	}
	if _, ok := lookup(s, key(9)); ok {
		t.Fatal("phantom hit")
	}
	for label, want := range map[string]int{
		"tstage/put/ok":       3,
		"tstage/spill/ok":     3,
		"tstage/get/hit_mem":  1,
		"tstage/get/hit_disk": 1,
		"tstage/get/miss":     1,
		"tstage/evict/ok":     2,
	} {
		if got := log.get(label); got != want {
			t.Errorf("%s = %d, want %d (all: %v)", label, got, want, log.counts)
		}
	}

	// Spill failures surface as spill/error without failing the Put.
	if err := os.RemoveAll(filepath.Join(dir, "tstage")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "tstage"), []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	s.Put(key(4), artifact{Name: "d"})
	if got := log.get("tstage/spill/error"); got != 1 {
		t.Errorf("spill/error = %d, want 1", got)
	}
	if got := log.get("tstage/put/ok"); got != 4 {
		t.Errorf("put/ok after failed spill = %d, want 4", got)
	}
}
