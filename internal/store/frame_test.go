package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// spillOne writes artifact a under key(1) through a spilling store in dir
// and returns the path and bytes of its spill file.
func spillOne(t *testing.T, dir string, a artifact) (string, []byte) {
	t.Helper()
	s, err := New[artifact]("f", Options{Dir: dir}, testCodec[artifact]())
	if err != nil {
		t.Fatal(err)
	}
	if info := s.Put(key(1), a); !info.Spilled {
		t.Fatal("artifact not spilled")
	}
	path := filepath.Join(dir, "f", key(1)+".bin")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, b
}

// TestFrameLayout pins the frame header: magic, codec schema, model
// version, CRC-32C and payload length, then the payload.
func TestFrameLayout(t *testing.T) {
	_, b := spillOne(t, t.TempDir(), artifact{Name: "a", Vals: []float64{1}})
	if string(b[:4]) != "RAMP" {
		t.Fatalf("magic %q", b[:4])
	}
	payload := b[frameHeaderLen:]
	if got := string(payload); got != `{"name":"a","vals":[1]}` {
		t.Fatalf("payload %q", got)
	}
	le := binary.LittleEndian
	if le.Uint32(b[4:]) != 7 || le.Uint32(b[8:]) != 3 {
		t.Fatalf("schema %d version %d, want 7 and 3", le.Uint32(b[4:]), le.Uint32(b[8:]))
	}
	if le.Uint64(b[16:]) != uint64(len(payload)) {
		t.Fatalf("length field %d, payload %d bytes", le.Uint64(b[16:]), len(payload))
	}
	if _, err := decodeFrame(testCodec[artifact](), b); err != nil {
		t.Fatalf("intact frame rejected: %v", err)
	}
}

// TestFrameFaultsQuarantined damages a spill file in each way a frame
// check catches. Every damaged file must read as a miss counted as
// exactly one disk failure, be removed, and stop being reported by
// Contains.
func TestFrameFaultsQuarantined(t *testing.T) {
	le := binary.LittleEndian
	cases := []struct {
		name   string
		damage func([]byte) []byte
		// reader, when set, replaces the codec that reads the file back.
		reader func(Codec[artifact]) Codec[artifact]
	}{
		{name: "truncated payload", damage: func(b []byte) []byte { return b[:len(b)-3] }},
		{name: "truncated header", damage: func(b []byte) []byte { return b[:frameHeaderLen-1] }},
		{name: "zero bytes", damage: func([]byte) []byte { return nil }},
		{name: "payload bit flipped", damage: func(b []byte) []byte { b[frameHeaderLen+5] ^= 0x04; return b }},
		{name: "checksum bit flipped", damage: func(b []byte) []byte { b[12] ^= 0x01; return b }},
		{name: "wrong magic", damage: func(b []byte) []byte { b[0] = 'X'; return b }},
		{name: "wrong schema field", damage: func(b []byte) []byte { le.PutUint32(b[4:], 8); return b }},
		{name: "wrong version field", damage: func(b []byte) []byte { le.PutUint32(b[8:], 4); return b }},
		{name: "length field too long", damage: func(b []byte) []byte { le.PutUint64(b[16:], le.Uint64(b[16:])+1); return b }},
		{name: "trailing byte", damage: func(b []byte) []byte { return append(b, 0) }},
		{name: "reader at a newer model version",
			reader: func(c Codec[artifact]) Codec[artifact] { c.Version++; return c }},
		{name: "reader at a newer schema",
			reader: func(c Codec[artifact]) Codec[artifact] { c.Schema++; return c }},
		{name: "intact frame, undecodable payload", damage: func(b []byte) []byte {
			bad := []byte(`{"name":`)
			le.PutUint32(b[12:], crc32.Checksum(bad, crcTable))
			le.PutUint64(b[16:], uint64(len(bad)))
			return append(b[:frameHeaderLen], bad...)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path, b := spillOne(t, dir, artifact{Name: "one", Vals: []float64{1, 2, 3}})
			if tc.damage != nil {
				if err := os.WriteFile(path, tc.damage(b), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			codec := testCodec[artifact]()
			if tc.reader != nil {
				codec = tc.reader(codec)
			}
			s, err := New[artifact]("f", Options{Dir: dir}, codec)
			if err != nil {
				t.Fatal(err)
			}
			if v, tier := s.Get(key(1)); tier != TierMiss {
				t.Fatalf("damaged file served from %v: %+v", tier, v)
			}
			if st := s.Stats(); st.DiskFailures != 1 || st.Misses != 1 || st.DiskHits != 0 {
				t.Fatalf("stats = %+v", st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("damaged file not removed: %v", err)
			}
			if s.Contains(key(1)) {
				t.Fatal("quarantined key still contained")
			}
			// The second lookup finds nothing to re-read.
			if _, tier := s.Get(key(1)); tier != TierMiss {
				t.Fatal("second lookup hit")
			}
			if st := s.Stats(); st.DiskFailures != 1 || st.Misses != 2 {
				t.Fatalf("stats after second lookup = %+v", st)
			}
		})
	}
}

// TestFrameIgnoresLegacyJSONSpill pins that an unframed <key>.json file
// left by an earlier release is never read, counted or removed.
func TestFrameIgnoresLegacyJSONSpill(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "f", key(1)+".json")
	if err := os.MkdirAll(filepath.Dir(legacy), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legacy, []byte(`{"name":"one","vals":[1]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New[artifact]("f", Options{Dir: dir}, testCodec[artifact]())
	if err != nil {
		t.Fatal(err)
	}
	if s.Contains(key(1)) {
		t.Fatal("legacy spill contained")
	}
	if _, tier := s.Get(key(1)); tier != TierMiss {
		t.Fatal("legacy spill served")
	}
	if st := s.Stats(); st.DiskFailures != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := os.Stat(legacy); err != nil {
		t.Fatalf("legacy spill touched: %v", err)
	}
}

// TestGetReportsTier pins the tier a hit reports: memory for a resident
// artifact, disk for one decoded from its spill file.
func TestGetReportsTier(t *testing.T) {
	dir := t.TempDir()
	want := artifact{Name: "one", Vals: []float64{0.5}}
	spillOne(t, dir, want)
	s, err := New[artifact]("f", Options{Dir: dir}, testCodec[artifact]())
	if err != nil {
		t.Fatal(err)
	}
	if v, tier := s.Get(key(1)); tier != TierDisk || v.Name != want.Name || v.Vals[0] != want.Vals[0] {
		t.Fatalf("first lookup = %+v from %v, want a disk hit", v, tier)
	}
	if _, tier := s.Get(key(1)); tier != TierMem {
		t.Fatalf("second lookup from %v, want mem", tier)
	}
	if _, tier := s.Get(key(2)); tier != TierMiss || tier.Hit() {
		t.Fatalf("absent key from %v", tier)
	}
	for tier, want := range map[Tier]string{TierMiss: "miss", TierMem: "mem", TierDisk: "disk"} {
		if tier.String() != want {
			t.Errorf("%d.String() = %q, want %q", tier, tier.String(), want)
		}
	}
}
