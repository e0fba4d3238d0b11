package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"github.com/ramp-sim/ramp/internal/trace"
)

// Stream-identity pins. Each digest is the sha256 of every field of the
// first digestInstrs instructions a generator emits, recorded from the
// generator when it drew through rand.New(rand.NewSource(seed)). Cached
// timing artifacts and golden stage keys depend on these streams, so a
// change to any digest is a change of model output and needs a
// model-version bump.
const digestInstrs = 1_000_000

var streamDigests = map[string]string{
	"ammp":     "589346433f44c5f8f37a0b652c8c798748807d060b4241fdda03e74c6904e059",
	"applu":    "81016f5ae25ca61cdfda6b47f9e6591c449c816ca6a5d5efcdbe73cbd2383609",
	"sixtrack": "407c4f5581011728dc86524f514f44554836589ddb02bb4a78d6e2b324639fda",
	"mgrid":    "06c29e3f3c6771ee25e466bcdbdaf749e3e72a459607f67e8605c8afd2760556",
	"mesa":     "f746b2097a1b1231b4b30bef71fe12622da843d466d1298ae6df0bf282c14526",
	"facerec":  "59de060dd9868a2fd41dbf4b4fd32b4a747214dfd3da3297f629b967a91ab714",
	"wupwise":  "8453e55107fb3feb75cb78a5bd2c5fda950656bbc5a3d5855c6589a0ccbd615b",
	"apsi":     "b2935185afe3e63ba053f2083439d74ffd13c5e0a5071c052aa02ff6fe96edca",
	"vpr":      "91cba888bab50039060335651659df0127aac56ecedfc7bd87a4202428401a9f",
	"bzip2":    "d71174c6b76aa7ff1df440ba5fdf46325680712fa1d53196cbd997ef571b376b",
	"twolf":    "39bc67cf81c70a528db762fde6f3849a64024bb1951448e6745eb9faaa3465f3",
	"gzip":     "d15b69c9e4c20164475dc11e8b9412362f829069af2617a0a47c154326940bdd",
	"perlbmk":  "d45827eb0b69af4c182fc2e34667477b4836e56fa240278b765bedd5b7b4ccc3",
	"gap":      "b2638d2ea57c907a3f639a7c5db5a31a051f70a74bda3f6447455f675c8255cf",
	"gcc":      "39fd1ceb2a00cfad8374e07d1dac21ed7f82dbe8cbc9d3c3ffed74e88198a4e6",
	"crafty":   "cf024dede1a36f1b795de44fecc4975bd8a611309e377f3d176bfaa7b13886e2",
	"phased":   "32752a6f8d28d5d9fbcb2169fcb9e259399c3d45d11deb1fa246677c81c64a2b",
	"sampled":  "68efabcbb9ef253710d79879ace652377d2c2e833d789fca367139b16cd06600/abef6a538fa611f2",
}

// hashInstr feeds every field of in to h in a fixed little-endian layout.
func hashInstr(h hash.Hash, in *trace.Instruction) {
	var b [32]byte
	binary.LittleEndian.PutUint64(b[0:], in.PC)
	binary.LittleEndian.PutUint64(b[8:], in.Addr)
	binary.LittleEndian.PutUint16(b[16:], in.Dest)
	binary.LittleEndian.PutUint16(b[18:], in.Src1)
	binary.LittleEndian.PutUint16(b[20:], in.Src2)
	b[22] = byte(in.Class)
	if in.Taken {
		b[23] = 1
	}
	binary.LittleEndian.PutUint64(b[24:], in.Target)
	h.Write(b[:])
}

// streamDigest hashes n instructions pulled one at a time from s.
func streamDigest(t *testing.T, s trace.Stream, n int) string {
	t.Helper()
	h := sha256.New()
	for i := 0; i < n; i++ {
		in, err := s.Next()
		if err != nil {
			t.Fatalf("instruction %d: %v", i, err)
		}
		hashInstr(h, &in)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashWarmer records every replayed skip access in a running digest.
type hashWarmer struct{ h hash.Hash }

func (w hashWarmer) WarmAccess(addr uint64, store bool) {
	var b [9]byte
	binary.LittleEndian.PutUint64(b[:], addr)
	if store {
		b[8] = 1
	}
	w.h.Write(b[:])
}

func TestStreamDigestsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("hashes 18M instructions")
	}
	got := make(map[string]string)
	for _, p := range Profiles() {
		g, err := New(p, digestInstrs)
		if err != nil {
			t.Fatal(err)
		}
		got[p.Name] = streamDigest(t, g, digestInstrs)
	}
	// The phase schedule drives the data-address draws through a second
	// set of probabilities.
	g, err := New(phasedProfile(t), digestInstrs)
	if err != nil {
		t.Fatal(err)
	}
	got["phased"] = streamDigest(t, g, digestInstrs)
	// A sampled phased stream interleaves Skip and SkipWarm with demand
	// generation; the warmed addresses are folded into the digest.
	g, err = New(phasedProfile(t), -1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := trace.NewSystematicSampler(g, trace.SamplerConfig{
		WindowInstrs: 20_000, PeriodInstrs: 70_000, HeadInstrs: 30_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	wh := sha256.New()
	s.SetWarmer(hashWarmer{wh})
	got["sampled"] = streamDigest(t, s, digestInstrs) + "/" + hex.EncodeToString(wh.Sum(nil))[:16]

	for name, want := range streamDigests {
		if got[name] != want {
			t.Errorf("%s: stream digest %s, want %s", name, got[name], want)
		}
	}
	if len(got) != len(streamDigests) {
		t.Errorf("digested %d streams, pinned %d", len(got), len(streamDigests))
	}
}
