package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// rankIndex is the nearest-rank index of quantile q in n sorted samples:
// the smallest index i with (i+1)/n >= q.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// beyond counts the samples strictly above quantile q's rank.
func beyond(n int, q float64) int { return n - 1 - rankIndex(n, q) }

// quantile is the nearest-rank quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 { return sorted[rankIndex(len(sorted), q)] }

// median of sorted samples: the middle one, or the mean of the middle two.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// minTail is the fewest samples a tail percentile must leave above it.
const minTail = 10

// tail reports quantile q of the samples, refusing when fewer than minTail
// samples lie beyond it: such a percentile would be a handful of outliers,
// not a tail.
func tail(sorted []float64, q float64) (float64, error) {
	if n := len(sorted); n == 0 || beyond(n, q) < minTail {
		return 0, fmt.Errorf("p%g over %d samples leaves %d beyond it, want >= %d", q*100, n, beyond(len(sorted), q), minTail)
	}
	return quantile(sorted, q), nil
}

// minSamples is the fewest samples a median is reported from.
const minSamples = 5

// sampleMedian sorts a copy of xs and returns its median, refusing too few
// samples: a metric is never a single timing.
func sampleMedian(xs []float64) (float64, error) {
	if len(xs) < minSamples {
		return 0, fmt.Errorf("%d samples, want >= %d", len(xs), minSamples)
	}
	return median(sorted(xs)), nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles are the first and third quartiles as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so
// the steadiness report matches the acceptance arithmetic exactly.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// A line-for-line port of statistics.quantiles' exclusive branch.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// block is a run of consecutive rounds: its event latencies and the system
// time it took.
type block struct {
	event []float64
	wall  time.Duration
}

// blocks splits a phase's rounds into n blocks of consecutive rounds, as
// equal in size as the round count allows.
func (s *samples) blocks(n int) []block {
	out := make([]block, 0, n)
	from, prev := 0, 0
	for b := 0; b < n; b++ {
		to := (b + 1) * len(s.rounds) / n
		if to == from {
			continue
		}
		var blk block
		for _, m := range s.rounds[from:to] {
			blk.wall += m.wall
		}
		end := s.rounds[to-1].events
		blk.event = s.event[prev:end]
		out = append(out, blk)
		from, prev = to, end
	}
	return out
}

// blockTail reports quantile q as the median, over the most blocks of
// consecutive rounds (at most throughputBlocks) in which every block keeps
// minTail samples beyond it, of each block's quantile q. A disturbance of
// the host shorter than half the run then moves it no more than it moves
// one block. With too few samples for two blocks it is the whole phase's
// quantile q.
func blockTail(s *samples, q float64) (float64, error) {
	for n := throughputBlocks; n > 1; n-- {
		var tails []float64
		for _, b := range s.blocks(n) {
			t, err := tail(sorted(b.event), q)
			if err != nil {
				tails = nil
				break
			}
			tails = append(tails, t)
		}
		if len(tails) == n {
			return median(sorted(tails)), nil
		}
	}
	return tail(sorted(s.event), q)
}
