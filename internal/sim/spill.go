package sim

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/ramp-sim/ramp/internal/microarch"
	"github.com/ramp-sim/ramp/internal/store"
)

// Spill payloads of the stage stores. internal/store wraps each payload in
// a checksummed frame carrying spillSchema and the stage's model version;
// the payload itself is
//
//	u64   length m of the metadata
//	m     metadata: the artifact as JSON, its bulk series left out
//	i64   length n of the bulk series (-1 for a nil series)
//	n·w   the series as little-endian 64-bit words, w words per element
//
// The bulk series — ThermalSeries.Intervals, microarch.Result.Samples and
// AppRun.TempTraceK — are nearly all of an artifact's bytes, and raw words
// decode over an order of magnitude faster than JSON numbers while
// keeping every float's exact bits (NaN, ±Inf and -0 included). The
// metadata stays JSON so that a field added to an artifact is carried
// without a codec change.
const spillSchema = 1

var errSpillTruncated = errors.New("sim: spill payload truncated")

// bulkSeries describes how one artifact type stores its bulk series: as
// words per element, the series' length (-1 for nil, so a nil series stays
// apart from an empty one), and the conversions between the series and
// exactly len·words·8 bytes.
type bulkSeries[A any] struct {
	words int
	len   func(*A) int
	put   func(dst []byte, v *A)
	get   func(src []byte, v *A, n int)
}

// stageCodec assembles one stage store's codec from the artifact's
// metadata view (the artifact with its bulk series removed) and its bulk
// series.
func stageCodec[A any](version int, meta func(*A) *A, bulk bulkSeries[A]) store.Codec[*A] {
	return store.Codec[*A]{
		Schema:  spillSchema,
		Version: uint32(version),
		Encode: func(dst []byte, v *A) ([]byte, error) {
			if v == nil {
				return nil, errors.New("sim: nil artifact")
			}
			m, err := json.Marshal(meta(v))
			if err != nil {
				return nil, err
			}
			n := bulk.len(v)
			size := 8 * bulk.words * max(n, 0)
			dst = slices.Grow(dst, 16+len(m)+size)
			dst = binary.LittleEndian.AppendUint64(dst, uint64(len(m)))
			dst = append(dst, m...)
			dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(n)))
			at := len(dst)
			dst = dst[:at+size]
			bulk.put(dst[at:], v)
			return dst, nil
		},
		Decode: func(b []byte) (*A, error) {
			if len(b) < 8 {
				return nil, errSpillTruncated
			}
			m := binary.LittleEndian.Uint64(b)
			b = b[8:]
			if m > uint64(len(b)) || len(b)-int(m) < 8 {
				return nil, errSpillTruncated
			}
			v := new(A)
			if err := json.Unmarshal(b[:m], v); err != nil {
				return nil, fmt.Errorf("sim: spill metadata: %w", err)
			}
			b = b[m:]
			n := int64(binary.LittleEndian.Uint64(b))
			b = b[8:]
			if n < -1 || n > int64(len(b)/(8*bulk.words)) || 8*int64(bulk.words)*max(n, 0) != int64(len(b)) {
				return nil, fmt.Errorf("sim: spill series of %d elements does not fill %d bytes", n, len(b))
			}
			bulk.get(b, v, int(n))
			return v, nil
		},
	}
}

// wordAt reads the i-th little-endian word of b as a float64.
func wordAt(b []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
}

// putWord writes f as the i-th little-endian word of b.
func putWord(b []byte, i int, f float64) {
	binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(f))
}

// seriesLen is the length word of a series.
func seriesLen[E any](s []E) int {
	if s == nil {
		return -1
	}
	return len(s)
}

// makeSeries allocates a decoded series of length n (nil for -1).
func makeSeries[E any](n int) []E {
	if n < 0 {
		return nil
	}
	return make([]E, n)
}

func timingCodec() store.Codec[*ActivityTrace] {
	const w = 2 + microarch.NumStructures // Cycles, Retired, AF
	return stageCodec(TimingModelVersion,
		func(v *ActivityTrace) *ActivityTrace {
			m := *v
			m.Timing.Samples = nil
			return &m
		},
		bulkSeries[ActivityTrace]{
			words: w,
			len:   func(v *ActivityTrace) int { return seriesLen(v.Timing.Samples) },
			put: func(dst []byte, v *ActivityTrace) {
				for i := range v.Timing.Samples {
					s, e := &v.Timing.Samples[i], dst[8*w*i:8*w*(i+1)]
					binary.LittleEndian.PutUint64(e, uint64(s.Cycles))
					binary.LittleEndian.PutUint64(e[8:], uint64(s.Retired))
					for j, f := range s.AF {
						putWord(e, 2+j, f)
					}
				}
			},
			get: func(src []byte, v *ActivityTrace, n int) {
				v.Timing.Samples = makeSeries[microarch.ActivitySample](n)
				for i := range v.Timing.Samples {
					s, e := &v.Timing.Samples[i], src[8*w*i:8*w*(i+1)]
					s.Cycles = int64(binary.LittleEndian.Uint64(e))
					s.Retired = int64(binary.LittleEndian.Uint64(e[8:]))
					for j := range s.AF {
						s.AF[j] = wordAt(e, 2+j)
					}
				}
			},
		})
}

func thermalCodec() store.Codec[*ThermalSeries] {
	const (
		ns = microarch.NumStructures
		w  = 2 + 2*ns // DurUS, AF, TempK, DieAvgTempK
	)
	return stageCodec(ThermalModelVersion,
		func(v *ThermalSeries) *ThermalSeries {
			m := *v
			m.Intervals = nil
			return &m
		},
		bulkSeries[ThermalSeries]{
			words: w,
			len:   func(v *ThermalSeries) int { return seriesLen(v.Intervals) },
			put: func(dst []byte, v *ThermalSeries) {
				for i := range v.Intervals {
					iv, e := &v.Intervals[i], dst[8*w*i:8*w*(i+1)]
					putWord(e, 0, iv.DurUS)
					for j := 0; j < ns; j++ {
						putWord(e, 1+j, iv.AF[j])
						putWord(e, 1+ns+j, iv.TempK[j])
					}
					putWord(e, w-1, iv.DieAvgTempK)
				}
			},
			get: func(src []byte, v *ThermalSeries, n int) {
				v.Intervals = makeSeries[ThermalInterval](n)
				for i := range v.Intervals {
					iv, e := &v.Intervals[i], src[8*w*i:8*w*(i+1)]
					iv.DurUS = wordAt(e, 0)
					for j := 0; j < ns; j++ {
						iv.AF[j] = wordAt(e, 1+j)
						iv.TempK[j] = wordAt(e, 1+ns+j)
					}
					iv.DieAvgTempK = wordAt(e, w-1)
				}
			},
		})
}

func fitCodec() store.Codec[*AppRun] {
	return stageCodec(FITModelVersion,
		func(v *AppRun) *AppRun {
			m := *v
			m.TempTraceK = nil
			return &m
		},
		bulkSeries[AppRun]{
			words: 1,
			len:   func(v *AppRun) int { return seriesLen(v.TempTraceK) },
			put: func(dst []byte, v *AppRun) {
				for i, f := range v.TempTraceK {
					putWord(dst, i, f)
				}
			},
			get: func(src []byte, v *AppRun, n int) {
				v.TempTraceK = makeSeries[float64](n)
				for i := range v.TempTraceK {
					v.TempTraceK[i] = wordAt(src, i)
				}
			},
		})
}
