package microarch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/ramp-sim/ramp/internal/trace"
	"github.com/ramp-sim/ramp/internal/workload"
)

// Result-identity pins. Each digest is the sha256 of a microarch.Result —
// every counter, the AvgAF bits, and every sample's Cycles, Retired and AF
// bits — recorded from the pipeline before its bandwidth tables, unit
// pools and activity accounting were rewritten for speed. Timing artifacts
// and every downstream study result are built from these Results, so a
// change to any digest is a change of model output and needs a
// model-version bump.
const (
	digestExactInstrs   = 200_000
	digestSampledInstrs = 1_000_000
)

var resultDigests = map[string]string{
	"ammp/exact":       "fd7655e80e85efeec026856ea66a40167143bfe821b309fa2b0f653f048d7422",
	"ammp/sampled":     "3df3942dd1e4ad9014a6b3386217ef0b604d59f44ee4aea838bfbb1db28ba826",
	"applu/exact":      "afe9ba86566eacf04e57bc22b7c832ea302ca1e99ebe3e28c5c770a4ec549c70",
	"applu/sampled":    "6add15dacc04009e6c6d76b04ee1ffb7ba33a803a63fabb4e4b9d61797559806",
	"sixtrack/exact":   "f288bc094d336c53c3b5d120a205dde7a673996d69e9b0187ab6c89a15e9552e",
	"sixtrack/sampled": "1d741d5aadbd4b1818421f0e6c7a27f0136158ce21fdf96a9038a59c891b84b3",
	"mgrid/exact":      "2d0b8e4993e31a7c48f6c1cf60b8fb93afd74503db671a6b8b31d795b1860d35",
	"mgrid/sampled":    "01330a7fce9cb90614286777bf4bc609108c3940adc91fb2cc406b5e78736663",
	"mesa/exact":       "9c18551c90867e4237bc29ee48ec8358ad8bea5f0261d5dda83faf280933b6ba",
	"mesa/sampled":     "3eac7a88df9d66f0421ad6731ec1ca940d0e8d9b96ce260eb7382b9d3213f3b5",
	"facerec/exact":    "0f74c5acb5edb602c6e2358850c6acf3cd17ad8eb79d02f230ee954ef32f3dc7",
	"facerec/sampled":  "91b9e49546e14684e99c9bd122f2fb4ff9e5f7ff201260324239d2815b770c7c",
	"wupwise/exact":    "24e664c35b114fcc769a5fe17a74a5a33ee33d2ef51bce5281cc696411f9b9a2",
	"wupwise/sampled":  "df68c46c4c1bfd106c23af4759f5700489fa5c0a6f77f2674b7f2ae5998ce360",
	"apsi/exact":       "13b0d0a25d2d45d930a03b2b08002207ef9d26b896244c9bb6fc5518ee81b54a",
	"apsi/sampled":     "fe568abbfe9ce2712703ad77a23f74012717c93c8f73dbaa6437c45658f3f356",
	"vpr/exact":        "7ff9e709c5a5ff01de3ac1840a973bcae3009320820f9f027cea5fb4cce7f92d",
	"vpr/sampled":      "408da1d1545b29231b0db461d9ca943cd4c197c57e13d5c41ebba9212a52bf34",
	"bzip2/exact":      "de8335eecb08c02e8246e8b43f8665f8b6e53fd65defe3127201ecdacbe754de",
	"bzip2/sampled":    "136fe8b0118139d2ba6d6a1e4aec11560db479d5fadaa1362ba109ee618085dc",
	"twolf/exact":      "0d702835f128728451da5a4990c463b342d90b8cfdf3b35cf29f19215bb862a7",
	"twolf/sampled":    "24dc8cfb543d380f1bb8ef11d20888a778b8a6249a19c9cc289e4f6ef3724c56",
	"gzip/exact":       "60c2fe9fb3dce948c38e2a96dfe51a275c262663116eab3138038a3c1a4b1694",
	"gzip/sampled":     "66ad3a747a104a3a94ffe4e0c4b809de9c0e4d97901e58b1645e42b52f07e8bc",
	"perlbmk/exact":    "edd44d785aa0137fb1caa61c725f2871785b09297fa66f696be9561edb38eb55",
	"perlbmk/sampled":  "365996693d6b115dd516b18471373100603bdfe6be9294343f1049a1c839ad69",
	"gap/exact":        "586f51ebe11d5dc178ff52c6991bccb3203943b34f68c4915f6b84d6c411a37c",
	"gap/sampled":      "46398655ea16e75565f2c28a56f23b2ef785b59271d85b4acbea0b8102681c80",
	"gcc/exact":        "8c465c715ac0fd1e69afa6509e52662cb63038c6ecc344b01869426ae65fe296",
	"gcc/sampled":      "08188df94a4521ccf04f4bcfd9d78ab7262569fe8a4c9ec2bee4ec4f8a78ad5a",
	"crafty/exact":     "d75f42a45b95dd015b4c8bb3cbdaa50356ebc0f0ca2da5aff55b24415f9ce205",
	"crafty/sampled":   "5af193d9b7729b98a766b045f536a1a816059c57465fb77a321be66c3484482f",
	"gzip/narrow":      "d0d76079061937582f0e61f897f79759d9ddb0b97c02abd99f00ac45d95170b5",
	"applu/narrow":     "3ff3e17fd7a9e67ff95a8128292ed5926eee17240a30d0e67ebe8eaf874009b2",
}

// resultDigest hashes every field of r in a fixed little-endian layout.
func resultDigest(r Result) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, v := range []int64{
		r.Instructions, r.Cycles, r.Branches, r.Mispredicts,
		r.L1IAccesses, r.L1IMisses, r.L1DAccesses, r.L1DMisses,
		r.L2Accesses, r.L2Misses, int64(len(r.Samples)),
	} {
		put(uint64(v))
	}
	for _, af := range r.AvgAF {
		put(math.Float64bits(af))
	}
	for _, s := range r.Samples {
		put(uint64(s.Cycles))
		put(uint64(s.Retired))
		for _, af := range s.AF {
			put(math.Float64bits(af))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runDigest simulates prof on cfg, exact or through the phase-fidelity
// sampler (10k-instruction windows every 100k after a 40k head, skipped
// spans warmed into the simulator's caches), and digests the Result.
func runDigest(t *testing.T, cfg Config, prof workload.Profile, sampled bool) string {
	t.Helper()
	n := int64(digestExactInstrs)
	if sampled {
		n = digestSampledInstrs
	}
	gen, err := workload.New(prof, n)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var stream trace.Stream = gen
	if sampled {
		s, err := trace.NewSystematicSampler(gen, trace.SamplerConfig{
			WindowInstrs: 10_000, PeriodInstrs: 100_000, HeadInstrs: 40_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.SetWarmer(sim)
		stream = s
	}
	res, err := sim.Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	return resultDigest(res)
}

// narrowConfig is a one-wide, slow-clocked machine with the prefetcher on:
// every bandwidth limit is 1 and an interval holds only 300 cycles, so the
// pins also cover the saturated-bandwidth and short-interval paths.
func narrowConfig() Config {
	c := DefaultConfig()
	c.FetchWidth, c.DispatchWidth, c.IssueWidth, c.RetireWidth = 1, 1, 1, 1
	c.IntUnits, c.FPUnits, c.LSUnits = 1, 1, 1
	c.NextLinePrefetch = true
	c.FrequencyGHz = 0.3
	return c
}

func TestResultDigestsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 19.2M instructions")
	}
	got := make(map[string]string)
	for _, p := range workload.Profiles() {
		got[p.Name+"/exact"] = runDigest(t, DefaultConfig(), p, false)
		got[p.Name+"/sampled"] = runDigest(t, DefaultConfig(), p, true)
	}
	for _, name := range []string{"gzip", "applu"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		got[name+"/narrow"] = runDigest(t, narrowConfig(), p, false)
	}
	for name, want := range resultDigests {
		if got[name] != want {
			t.Errorf("%s: result digest %s, want %s", name, got[name], want)
		}
	}
	for name, d := range got {
		if _, ok := resultDigests[name]; !ok {
			t.Errorf("%s: unpinned result digest %s", name, d)
		}
	}
}
