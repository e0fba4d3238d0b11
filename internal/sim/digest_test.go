package sim

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"testing"

	"github.com/ramp-sim/ramp/internal/core"
	"github.com/ramp-sim/ramp/internal/scaling"
)

// Stage-output pins, one per model version. Each digest is the sha256 of
// every field of a stage's artifact (hashValue) on the fixed input of
// stageOutputs. Spill files and stage keys are only as sound as these
// versions: an artifact written by one version is served to any reader of
// the same version. So when a change moves a digest, bump that stage's
// version in canonical.go and record the new digest under it; a new field
// in an artifact moves the digest too, and needs the bump as well, since
// older spill files lack it. The timing stage's output is pinned by the
// stream and result digests of internal/workload and internal/microarch.
var (
	thermalDigests = map[int]string{
		0: "dac859be814aba2ce632d736947b6b523b707b6f33fed47d167306a0be8d0e86",
	}
	// The FIT stage is pinned under the paper's four mechanisms and under
	// an extended set with thermal-trace recording, which adds name-keyed
	// rates, a series mechanism and the TempTraceK series.
	fitDigests = map[int][2]string{
		0: {
			"28422fea55d6b040ce6fd1a87bd057640af1ff62dfc1ce177317c467bbf72565",
			"d27af88dada3484a37dcee51a7631d7d3be48d79a8038ba791ea6998a667f0bc",
		},
	}
)

// stageOutputs runs the thermal stage and both FIT configurations on the
// fixed input.
func stageOutputs(t *testing.T) (*ThermalSeries, [2]AppRun) {
	t.Helper()
	cfg := testConfig()
	cfg.Instructions = 60_000
	tech := scaling.Generations()[2]
	ctx := context.Background()
	tr, err := RunTimingContext(ctx, cfg, testProfiles(t)[1])
	if err != nil {
		t.Fatal(err)
	}
	ts, err := RunThermalContext(ctx, cfg, tr, tech, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var runs [2]AppRun
	if runs[0], err = AccumulateFITContext(ctx, cfg, ts, tech); err != nil {
		t.Fatal(err)
	}
	cfg.RecordThermalTrace = true
	cfg.Mechanisms = append(core.DefaultMechanismNames(), core.MechNBTI, core.MechHCI, core.MechTCRainflow)
	if runs[1], err = AccumulateFITContext(ctx, cfg, ts, tech); err != nil {
		t.Fatal(err)
	}
	return ts, runs
}

func TestThermalOutputDigest(t *testing.T) {
	want, ok := thermalDigests[ThermalModelVersion]
	if !ok {
		t.Fatalf("no output digest recorded for thermal model version %d", ThermalModelVersion)
	}
	ts, _ := stageOutputs(t)
	if got := digestOf(t, ts); got != want {
		t.Errorf("thermal output digest %s, want %s: the thermal stage's output changed; "+
			"bump ThermalModelVersion and record the new digest", got, want)
	}
}

func TestFITOutputDigest(t *testing.T) {
	want, ok := fitDigests[FITModelVersion]
	if !ok {
		t.Fatalf("no output digest recorded for FIT model version %d", FITModelVersion)
	}
	_, runs := stageOutputs(t)
	for i, run := range runs {
		if got := digestOf(t, run); got != want[i] {
			t.Errorf("FIT output digest %d: %s, want %s: the reliability stage's output changed; "+
				"bump FITModelVersion and record the new digest", i, got, want[i])
		}
	}
}

// digestOf hashes every field of v.
func digestOf(t *testing.T, v any) string {
	t.Helper()
	h := sha256.New()
	hashValue(t, h, reflect.ValueOf(v))
	return hex.EncodeToString(h.Sum(nil))
}

// hashValue feeds v to h in a fixed little-endian layout: numbers as
// 64-bit words (floats by their bits), strings and slices prefixed by
// their length (-1 for a nil slice), structs field by field.
func hashValue(t *testing.T, h hash.Hash, v reflect.Value) {
	word := func(u uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		word(math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		word(v.Uint())
	case reflect.Bool:
		if v.Bool() {
			word(1)
		} else {
			word(0)
		}
	case reflect.String:
		word(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Slice:
		if v.IsNil() {
			word(math.MaxUint64)
			return
		}
		fallthrough
	case reflect.Array:
		word(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashValue(t, h, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashValue(t, h, v.Field(i))
		}
	case reflect.Pointer:
		if v.IsNil() {
			word(math.MaxUint64)
			return
		}
		hashValue(t, h, v.Elem())
	default:
		t.Fatalf("digest: unsupported kind %s", v.Kind())
	}
}
