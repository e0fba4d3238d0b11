// Package store is a content-addressed artifact cache for the staged
// simulation pipeline. Artifacts are keyed by the hex SHA-256 of the
// canonical encoding of everything that produced them (internal/sim's
// per-stage keys, which include each stage's model version), so a hit is
// — by construction — the exact output of the requested computation.
//
// A Store keeps decoded artifacts in a bounded in-memory LRU and can
// optionally spill the encoded form to a directory, so a cold process (or
// a CLI run) restarts with a warm cache. Each spill file is a checksummed
// frame (frame.go) that is verified on every read; a file that fails any
// check is removed and counted, never served. Disk I/O failures degrade to
// cache misses: the store never fails a lookup or an insert because the
// spill tier is unhealthy, it only counts the error. A memory-only store
// can also expire entries after a TTL, which is how rampd bounds the age
// of its whole-study results.
package store

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Options bounds a Store.
type Options struct {
	// MaxEntries bounds the in-memory LRU (default 256, minimum 1).
	MaxEntries int
	// Dir, when non-empty, enables the disk spill tier rooted there. Each
	// store writes under Dir/<name>/. The directory is created on demand.
	Dir string
	// Observer, when non-nil, receives one Event per store operation
	// (lookups with their outcome, inserts, evictions, disk spills). It is
	// called without the store lock held, from whatever goroutine performed
	// the operation, and must be safe for concurrent use.
	Observer func(Event)
	// TTL, when positive, expires each entry that long after its latest
	// Put; an expired entry is dropped and counted as a miss on its next
	// Get. Only a memory-only store may expire entries: a spilled file
	// would otherwise bring an expired artifact back.
	TTL time.Duration
	// Now overrides the clock TTL expiry reads, for tests; nil uses
	// time.Now.
	Now func() time.Time
}

// Event operation and outcome labels.
const (
	// OpGet is a lookup; outcomes OutcomeHitMem / OutcomeHitDisk /
	// OutcomeMiss.
	OpGet = "get"
	// OpPut is an insert; outcome OutcomeOK.
	OpPut = "put"
	// OpEvict is an LRU eviction; outcome OutcomeOK.
	OpEvict = "evict"
	// OpSpill is a disk-tier write; outcomes OutcomeOK / OutcomeError.
	OpSpill = "spill"

	OutcomeHitMem  = "hit_mem"
	OutcomeHitDisk = "hit_disk"
	OutcomeMiss    = "miss"
	OutcomeOK      = "ok"
	OutcomeError   = "error"
)

// Event describes one completed store operation for observability hooks.
type Event struct {
	// Store is the store's name (its stage, for the stage cache).
	Store string
	// Op is one of the Op* constants.
	Op string
	// Outcome is one of the Outcome* constants.
	Outcome string
}

// Codec serialises artifacts for the disk tier. The store wraps every
// payload in a frame carrying Schema and Version, and reads a file back
// only when both match the codec's; Decode never sees a payload that
// failed the frame's length or checksum test.
type Codec[T any] struct {
	// Schema identifies the payload layout Encode writes. Change it with
	// the layout.
	Schema uint32
	// Version is the model version of the stage whose output the store
	// holds.
	Version uint32
	// Encode appends the payload encoding of v to dst.
	Encode func(dst []byte, v T) ([]byte, error)
	// Decode parses a payload Encode wrote.
	Decode func([]byte) (T, error)
}

// Tier names where a lookup found its artifact.
type Tier uint8

const (
	// TierMiss means the lookup found nothing.
	TierMiss Tier = iota
	// TierMem means the artifact was resident in memory.
	TierMem
	// TierDisk means the artifact was decoded from its spill file.
	TierDisk
)

// Hit reports whether the lookup found the artifact.
func (t Tier) Hit() bool { return t != TierMiss }

// String returns "mem", "disk" or "miss".
func (t Tier) String() string {
	switch t {
	case TierMem:
		return "mem"
	case TierDisk:
		return "disk"
	}
	return "miss"
}

// Stats is a consistent snapshot of a store's counters. MemHits and
// DiskHits partition successful lookups; a disk hit re-admits the decoded
// artifact to the memory tier. Expired counts the lookups that found an
// entry past its TTL; each is also a miss.
type Stats struct {
	Entries                     int
	MemHits, DiskHits, Misses   int64
	Puts, Evicted, DiskFailures int64
	Expired                     int64
}

// Store is one artifact kind's cache. Create with New; the zero value is
// not usable. All methods are safe for concurrent use.
//
// Values are shared between the cache and its callers: treat artifacts as
// immutable after Put.
type Store[T any] struct {
	mu      sync.Mutex
	name    string
	max     int
	ll      *list.List // front = most recently used
	items   map[string]*list.Element
	dir     string        // "" = memory only
	ttl     time.Duration // ≤0 = no expiry
	now     func() time.Time
	codec   Codec[T]
	stats   Stats
	observe func(Event) // nil = no observer
}

// event emits an operation event to the observer, if any. Never called
// with s.mu held.
func (s *Store[T]) event(op, outcome string) {
	if s.observe != nil {
		s.observe(Event{Store: s.name, Op: op, Outcome: outcome})
	}
}

// entry is one resident artifact.
type entry[T any] struct {
	key     string
	val     T
	expires time.Time // zero = no expiry
}

// expiredLocked reports whether e is past its TTL; caller holds s.mu.
// Entries of a store without TTL never read the clock.
func (s *Store[T]) expiredLocked(e *entry[T]) bool {
	return !e.expires.IsZero() && !s.now().Before(e.expires)
}

// New returns a store named name (its subdirectory under Options.Dir).
// codec may be zero-valued when no spill directory is configured.
func New[T any](name string, opts Options, codec Codec[T]) (*Store[T], error) {
	if name == "" {
		return nil, fmt.Errorf("store: empty store name")
	}
	max := opts.MaxEntries
	if max <= 0 {
		max = 256
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	s := &Store[T]{
		name:    name,
		max:     max,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		ttl:     opts.TTL,
		now:     now,
		codec:   codec,
		observe: opts.Observer,
	}
	if opts.Dir != "" {
		if s.ttl > 0 {
			return nil, fmt.Errorf("store %s: TTL expiry requires a memory-only store", name)
		}
		if codec.Encode == nil || codec.Decode == nil {
			return nil, fmt.Errorf("store %s: disk spill requires a codec", name)
		}
		dir := filepath.Join(opts.Dir, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store %s: %w", name, err)
		}
		s.dir = dir
	}
	return s, nil
}

// validKey rejects keys that could escape the spill directory; stage keys
// are hex SHA-256 digests, so anything else indicates a caller bug.
func validKey(key string) bool {
	if len(key) < 16 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Get returns the artifact for key and the tier that served it,
// consulting the memory tier then the disk tier. A disk hit verifies the
// spill frame, decodes the artifact and promotes it to memory; a file that
// fails verification or decoding is removed, counted as one disk failure,
// and the lookup is a miss.
func (s *Store[T]) Get(key string) (T, Tier) {
	var zero T
	if !validKey(key) {
		return zero, TierMiss
	}
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		e := el.Value.(*entry[T])
		if !s.expiredLocked(e) {
			s.ll.MoveToFront(el)
			s.stats.MemHits++
			// Read under the lock: a concurrent Put of the same key
			// refreshes e.val in place.
			v := e.val
			s.mu.Unlock()
			s.event(OpGet, OutcomeHitMem)
			return v, TierMem
		}
		// Only memory-only stores expire, so there is no disk tier to
		// consult: the expired entry is a miss.
		delete(s.items, key)
		s.ll.Remove(el)
		s.stats.Expired++
		s.stats.Misses++
		s.mu.Unlock()
		s.event(OpGet, OutcomeMiss)
		return zero, TierMiss
	}
	dir := s.dir
	s.mu.Unlock()

	if dir != "" {
		// Disk read outside the lock: decoding can be slow and must not
		// serialise unrelated lookups.
		path := s.path(key)
		if b, err := os.ReadFile(path); err == nil {
			if v, err := decodeFrame(s.codec, b); err == nil {
				s.mu.Lock()
				s.stats.DiskHits++
				evicted := s.admitLocked(key, v)
				s.mu.Unlock()
				s.event(OpGet, OutcomeHitDisk)
				for ; evicted > 0; evicted-- {
					s.event(OpEvict, OutcomeOK)
				}
				return v, TierDisk
			}
			// Quarantine the bad file so it is counted once, not re-read
			// on every lookup. Should a good re-spill of the same key race
			// this removal, the cost is one recompute.
			os.Remove(path)
			s.noteDiskFailure()
		}
	}
	s.mu.Lock()
	s.stats.Misses++
	s.mu.Unlock()
	s.event(OpGet, OutcomeMiss)
	return zero, TierMiss
}

// Peek returns the live memory-tier value for key without touching the
// counters, the LRU order, or the observer, and never serves an expired
// entry. A lookup that must not count twice — rampd's flight leader
// re-checking the result cache after its own counted miss — uses it.
func (s *Store[T]) Peek(key string) (T, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		if e := el.Value.(*entry[T]); !s.expiredLocked(e) {
			return e.val, true
		}
	}
	var zero T
	return zero, false
}

// Contains reports whether key is live in memory or present on disk,
// without decoding or promoting anything and without touching the hit/miss
// counters. Planning code uses it to decide whether an upstream stage can
// be skipped; because an entry can be evicted between Contains and Get,
// callers must still handle a subsequent miss.
func (s *Store[T]) Contains(key string) bool {
	if !validKey(key) {
		return false
	}
	s.mu.Lock()
	el, ok := s.items[key]
	live := ok && !s.expiredLocked(el.Value.(*entry[T]))
	dir := s.dir
	s.mu.Unlock()
	if live {
		return true
	}
	if dir == "" {
		return false
	}
	_, err := os.Stat(s.path(key))
	return err == nil
}

// PutInfo reports what one Put did beyond the memory-tier insert, so
// callers can annotate their own telemetry (the stage cache marks its
// store.put spans "spilled").
type PutInfo struct {
	// Spilled is true when the encoded artifact was written to the disk
	// tier.
	Spilled bool
	// Evicted is the number of memory-tier entries displaced.
	Evicted int
}

// Put stores the artifact under key in the memory tier and, when spill is
// configured, writes its frame to disk (atomically, via a temp file
// rename). Re-putting an existing key refreshes its LRU position and TTL.
func (s *Store[T]) Put(key string, v T) PutInfo {
	if !validKey(key) {
		return PutInfo{}
	}
	s.mu.Lock()
	s.stats.Puts++
	evicted := s.admitLocked(key, v)
	dir := s.dir
	s.mu.Unlock()
	s.event(OpPut, OutcomeOK)
	info := PutInfo{Evicted: evicted}
	for ; evicted > 0; evicted-- {
		s.event(OpEvict, OutcomeOK)
	}

	if dir == "" {
		return info
	}
	b, err := encodeFrame(s.codec, v)
	if err != nil {
		s.noteDiskFailure()
		s.event(OpSpill, OutcomeError)
		return info
	}
	path := s.path(key)
	tmp, err := os.CreateTemp(dir, ".tmp-"+key[:8]+"-*")
	if err != nil {
		s.noteDiskFailure()
		s.event(OpSpill, OutcomeError)
		return info
	}
	_, werr := tmp.Write(b)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		s.noteDiskFailure()
		s.event(OpSpill, OutcomeError)
		return info
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		s.noteDiskFailure()
		s.event(OpSpill, OutcomeError)
		return info
	}
	s.event(OpSpill, OutcomeOK)
	info.Spilled = true
	return info
}

// admitLocked inserts or refreshes a memory-tier entry, returning the
// number of entries evicted to stay within the bound; caller holds s.mu.
func (s *Store[T]) admitLocked(key string, v T) int {
	var expires time.Time
	if s.ttl > 0 {
		expires = s.now().Add(s.ttl)
	}
	if el, ok := s.items[key]; ok {
		e := el.Value.(*entry[T])
		e.val, e.expires = v, expires
		s.ll.MoveToFront(el)
		return 0
	}
	s.items[key] = s.ll.PushFront(&entry[T]{key: key, val: v, expires: expires})
	evicted := 0
	for s.ll.Len() > s.max {
		oldest := s.ll.Back()
		if oldest == nil {
			break
		}
		delete(s.items, oldest.Value.(*entry[T]).key)
		s.ll.Remove(oldest)
		s.stats.Evicted++
		evicted++
	}
	return evicted
}

// path maps a key to its spill file. Files of any other extension — the
// unframed <key>.json spills of earlier releases among them — are never
// read.
func (s *Store[T]) path(key string) string {
	return filepath.Join(s.dir, key+".bin")
}

func (s *Store[T]) noteDiskFailure() {
	s.mu.Lock()
	s.stats.DiskFailures++
	s.mu.Unlock()
}

// Len returns the memory-tier entry count.
func (s *Store[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Stats returns a snapshot of the counters.
func (s *Store[T]) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.ll.Len()
	return st
}
