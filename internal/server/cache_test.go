package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// cacheKey maps a label to a key of the shape the result cache accepts:
// a hex SHA-256 digest, like the study keys from sim.StudyKey.
func cacheKey(label string) string {
	sum := sha256.Sum256([]byte(label))
	return hex.EncodeToString(sum[:])
}

// TestCacheLRUEviction proves the server's result cache holds to
// Config.CacheSize and evicts least-recently-used, counting Get
// promotions as use.
func TestCacheLRUEviction(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.CacheSize = 3 })
	c := s.cache
	for i := 0; i < 3; i++ {
		c.Put(cacheKey(fmt.Sprint("k", i)), i)
	}
	// Touch k0 so k1 becomes the eviction candidate.
	if _, ok := c.Get(cacheKey("k0")); !ok {
		t.Fatal("k0 missing before eviction")
	}
	c.Put(cacheKey("k3"), 3)
	if c.Len() != 3 {
		t.Fatalf("cache holds %d entries, want 3", c.Len())
	}
	if _, ok := c.Get(cacheKey("k1")); ok {
		t.Error("k1 survived eviction despite being least recently used")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(cacheKey(k)); !ok {
			t.Errorf("%s evicted unexpectedly", k)
		}
	}
	if st := c.Stats(); st.Evicted != 1 {
		t.Errorf("evicted = %d, want 1", st.Evicted)
	}
}

// TestCacheHitRatioCounters checks the result cache's hit/miss accounting
// and that /metrics reports the same counts and their ratio.
func TestCacheHitRatioCounters(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.CacheSize = 4 })
	s.cache.Put(cacheKey("a"), 1)
	s.cache.Get(cacheKey("a"))
	s.cache.Get(cacheKey("a"))
	s.cache.Get(cacheKey("b"))
	st := s.cache.Stats()
	if hits := st.MemHits + st.DiskHits; hits != 2 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 2/1", hits, st.Misses)
	}
	cache, ok := s.metricsSnapshot()["cache"].(map[string]any)
	if !ok {
		t.Fatal("metrics snapshot has no cache block")
	}
	if cache["hits"] != int64(2) || cache["misses"] != int64(1) {
		t.Errorf("metrics hits/misses = %v/%v, want 2/1", cache["hits"], cache["misses"])
	}
	if r := cache["hit_ratio"]; r != 2.0/3.0 {
		t.Errorf("metrics hit_ratio = %v, want %v", r, 2.0/3.0)
	}
}
