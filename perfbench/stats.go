package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 90, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted and the
// rank (1-based) it was read from.
func percentile(sorted []float64, p float64) (float64, int) {
	if len(sorted) == 0 {
		return math.NaN(), 0
	}
	// The small slack keeps an exact product such as 99.9% of 10000 from
	// rounding up a rank.
	rank := int(math.Ceil(p*float64(len(sorted))/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1], rank
}

// tail returns the highest percentile of tailLadder that has at least
// minBeyond samples beyond it, with its value. ok is false when there are
// too few samples for any of them.
func tail(samples []float64) (pct, value float64, ok bool) {
	sorted := sortedCopy(samples)
	for _, p := range tailLadder {
		v, rank := percentile(sorted, p)
		if len(sorted)-rank >= minBeyond {
			return p, v, true
		}
	}
	return 0, 0, false
}

// median is the middle value (the mean of the middle two for an even
// count); NaN for no samples.
func median(samples []float64) float64 {
	sorted := sortedCopy(samples)
	n := len(sorted)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return sorted[n/2]
	default:
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
}

func sortedCopy(samples []float64) []float64 {
	out := append([]float64(nil), samples...)
	sort.Float64s(out)
	return out
}

// latencyWindow is the length of the windows windowedP50 groups ops into.
const latencyWindow = time.Second

// windowedP50 groups op latencies by window (win[i] is op i's window)
// and returns the median of the windows' medians. On a shared host the
// speed of the machine drifts from second to second with other tenants'
// load and, for the server, with how each window's fresh connections land
// on the CPUs; weighting every window equally keeps one slow stretch, or
// one window of many fast ops, from setting the figure.
func windowedP50(lats []float64, win []int) float64 {
	groups := map[int][]float64{}
	for i, l := range lats {
		groups[win[i]] = append(groups[win[i]], l)
	}
	meds := make([]float64, 0, len(groups))
	for _, g := range groups {
		meds = append(meds, median(g))
	}
	return median(meds)
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// coverage is the share of the run's worker capacity (wall × workers)
// that the measured layers account for: the summed self time of every
// layer plus the time workers sat idle. 1 means every worker-second is
// attributed; the remainder is time inside tasks no layer measured.
func coverage(selfTimes map[string]time.Duration, idle, wall time.Duration, workers int) float64 {
	if wall <= 0 || workers < 1 {
		return 0
	}
	sum := idle
	for _, d := range selfTimes {
		sum += d
	}
	return sum.Seconds() / (wall.Seconds() * float64(workers))
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
