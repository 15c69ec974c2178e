package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// oracleQuantile is the nearest-rank quantile by its definition: the
// smallest sample with at least a q share of samples at or below it.
func oracleQuantile(s []float64, q float64) (float64, int) {
	for i, x := range s {
		if float64(i+1)/float64(len(s)) >= q-1e-12 {
			return x, len(s) - 1 - i
		}
	}
	return s[len(s)-1], 0
}

func TestQuantileMatchesSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(300)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(50)) // ties on purpose
		}
		s := sorted(xs)
		for _, q := range []float64{0.01, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
			want, wantBeyond := oracleQuantile(s, q)
			if got := quantile(s, q); got != want {
				t.Fatalf("n=%d q=%g: quantile %g, oracle %g", n, q, got, want)
			}
			if got := beyond(n, q); got != wantBeyond {
				t.Fatalf("n=%d q=%g: beyond %d, oracle %d", n, q, got, wantBeyond)
			}
		}
	}
}

func TestTailRefusesThinTails(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i)
	}
	if v, err := tail(s, 0.99); err != nil || v != 989 {
		t.Fatalf("p99 of 1000: %v %v, want 989 with 10 beyond", v, err)
	}
	if _, err := tail(s, 0.999); err == nil {
		t.Fatal("p99.9 of 1000 samples leaves 1 beyond it and must be refused")
	}
	if _, err := sampleMedian(s[:minSamples-1]); err == nil {
		t.Fatal("a median of too few samples must be refused")
	}
}

// blockTail takes the median of per-block quantiles, so one disturbed
// block does not move it, and falls back to the whole phase when blocks
// would leave fewer than minTail samples beyond the quantile.
func TestBlockTail(t *testing.T) {
	phase := func(events, rounds int) *samples {
		s := &samples{}
		for i := 0; i < events; i++ {
			s.event = append(s.event, float64(i%100))
			if (i+1)%(events/rounds) == 0 {
				s.rounds = append(s.rounds, roundMark{events: len(s.event), wall: time.Millisecond})
			}
		}
		return s
	}
	s := phase(8000, 80)
	for i := 3000; i < 4000; i++ { // one block of eight, disturbed
		s.event[i] = 1e6
	}
	if v, err := blockTail(s, 0.99); err != nil || v != 98 {
		t.Fatalf("p99 over blocks: %v %v, want 98", v, err)
	}
	s = phase(1000, 10)
	want, _ := tail(sorted(s.event), 0.99)
	if v, err := blockTail(s, 0.99); err != nil || v != want {
		t.Fatalf("p99 of a thin phase: %v %v, want the whole phase's %v", v, err, want)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{[]float64{3}, 3}, {[]float64{4, 1}, 2.5}, {[]float64{5, 1, 3}, 3}, {[]float64{1, 9, 2, 7}, 4.5}} {
		s := append([]float64(nil), c.xs...)
		sort.Float64s(s)
		if got := median(s); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

// Reference values from Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.5, 1.25, 9, 4}, 1.8125, 7.75},
		{[]float64{5, 1}, 0, 6},
		{[]float64{2, 8, 4}, 2, 8},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
