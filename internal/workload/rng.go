package workload

import (
	"math/bits"
	"math/rand"
)

// The generator's random source is a concrete copy of math/rand's default
// source, so that every draw a trace depends on comes out of the same value
// stream as rand.New(rand.NewSource(seed)) while the hot path avoids
// math/rand's interface calls.
//
// math/rand's source is an additive lagged Fibonacci generator: its n-th
// 64-bit output is x[n] = x[n-607] + x[n-273] (mod 2^64). Seeding fills a
// 607-value register from the seed and a table of constants; the first 607
// outputs depend on that register, and from the 608th on the recurrence
// over earlier outputs alone defines the stream. lfSource therefore takes
// its first 607 values from rand.NewSource(seed) itself and then runs the
// recurrence in place, one 607-value block at a time:
//
//	vec[i] += vec[i+334]  for i < 273  (x[n-273] is last block's vec[i+334])
//	vec[i] += vec[i-273]  for i ≥ 273  (x[n-273] was written this block)
//
// Draws that math/rand makes with Float64() < p compare the underlying
// Int63 value against an integer threshold instead (see threshold).

const (
	lfLen = 607 // register length: the recurrence's long lag
	lfTap = 273 // the recurrence's short lag

	// float64Limit is the smallest Int63 value that math/rand's Float64
	// rounds to 1.0 — 2^63-512 is the midpoint between the last float64
	// below 2^63 and 2^63, and rounds to even, up — and so resamples.
	float64Limit = 1<<63 - 512
)

// lfSource reproduces rand.New(rand.NewSource(seed)) draw for draw for the
// methods the generator uses.
type lfSource struct {
	vec [lfLen]uint64
	pos int // index of the next value in vec; lfLen means refill first
}

// seed loads the first lfLen outputs of math/rand's source for seed.
func (r *lfSource) seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	for i := range r.vec {
		r.vec[i] = src.Uint64()
	}
	r.pos = 0
}

// Int63 returns the next value as rand.Rand.Int63 would.
func (r *lfSource) Int63() int64 {
	if r.pos == lfLen {
		r.refill()
	}
	r.pos++
	return int64(r.vec[r.pos-1]) & (1<<63 - 1)
}

// refill advances the register one block of lfLen outputs. It is kept out
// of Int63 so that Int63 stays small enough to inline.
//
//go:noinline
func (r *lfSource) refill() {
	v := &r.vec
	for i := 0; i < lfTap; i++ {
		v[i] += v[i+lfLen-lfTap]
	}
	for i := lfTap; i < lfLen; i++ {
		v[i] += v[i-lfTap]
	}
	r.pos = 0
}

// unit returns the next Int63 value that rand.Rand.Float64 accepts: Float64
// resamples a value that rounds to 1.0, and so does unit. Float64() then
// equals float64(unit()) / (1 << 63).
func (r *lfSource) unit() int64 {
	for {
		if v := r.Int63(); v < float64Limit {
			return v
		}
	}
}

// geometric returns the count a run of unit draws reaches, drawing and
// returning exactly what
//
//	d := 1
//	for d < maxD && r.unit() >= stop {
//		d++
//	}
//
// would, but scanning the register with a local position: one draw costs
// a load, a mask and two compares.
func (r *lfSource) geometric(stop int64, maxD int) int {
	d, pos := 1, r.pos
	for d < maxD {
		if pos == lfLen {
			r.refill()
			pos = 0
		}
		v := int64(r.vec[pos]) & (1<<63 - 1)
		pos++
		if v >= float64Limit {
			continue // unit resamples
		}
		if v < stop {
			break
		}
		d++
	}
	r.pos = pos
	return d
}

// Float64 returns the next value as rand.Rand.Float64 would.
func (r *lfSource) Float64() float64 {
	return float64(r.unit()) / (1 << 63)
}

// Intn returns the next value as rand.Rand.Intn would for n in
// [1, 2^31-1], the range where Intn draws through Int31n.
func (r *lfSource) Intn(n int) int {
	m := int32(n)
	if m&(m-1) == 0 {
		return int(int32(r.Int63()>>32) & (m - 1))
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(m))
	v := int32(r.Int63() >> 32)
	for v > max {
		v = int32(r.Int63() >> 32)
	}
	return int(v % m)
}

// modulus is rand.Rand.Int63n's per-bound arithmetic precomputed for one
// fixed n: the rejection limit, and a reciprocal that turns the final
// v % n into a multiply-high and at most one correction, avoiding a
// hardware divide.
type modulus struct {
	n     uint64
	max   int64  // largest accepted draw (Int63n's max)
	recip uint64 // floor((2^64-1) / n)
	pow2  bool
}

func newModulus(n int64) modulus {
	u := uint64(n)
	return modulus{
		n:     u,
		max:   int64((1 << 63) - 1 - (1<<63)%u),
		recip: ^uint64(0) / u,
		pow2:  n&(n-1) == 0,
	}
}

// Int63n returns the next value as rand.Rand.Int63n(m.n) would.
func (r *lfSource) Int63n(m *modulus) int64 {
	if m.pow2 {
		return r.Int63() & int64(m.n-1)
	}
	v := r.Int63()
	for v > m.max {
		v = r.Int63()
	}
	return int64(m.reduce(uint64(v)))
}

// reduce returns v % m.n. The reciprocal lies within 1 below 2^64/n, so
// v*recip/2^64 lies within v/2^64 < 1 below v/n: q = mulhi(v, recip) is
// floor(v/n) or one less, and one conditional subtraction fixes the
// remainder.
func (m *modulus) reduce(v uint64) uint64 {
	q, _ := bits.Mul64(v, m.recip)
	rem := v - q*m.n
	if rem >= m.n {
		rem -= m.n
	}
	return rem
}

// threshold returns the integer form of a Float64 comparison: the smallest
// value v in [0, float64Limit] for which pred(float64(v) / (1 << 63)) is
// false, or float64Limit when pred holds for every value unit can return.
// pred must be monotone — true on a prefix of the draws and false after —
// which holds for f < p, f <= p and f*c < p with c >= 0 because the
// int-to-float conversion and multiplication are monotone under rounding.
// Then pred(float64(unit()) / (1 << 63)) is exactly unit() < threshold.
func threshold(pred func(f float64) bool) int64 {
	lo, hi := int64(0), int64(float64Limit)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if pred(float64(mid) / (1 << 63)) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// below returns the threshold t with unit() < t exactly when Float64() < p.
func below(p float64) int64 {
	return threshold(func(f float64) bool { return f < p })
}
