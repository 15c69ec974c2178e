package main

import (
	"math/rand"
	"testing"
)

// smoke shrinks a workload to test size: few rows, few rounds, a tail the
// small event count supports.
func smoke(t *testing.T, name string) *workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	s := *w
	s.rows, s.minRounds, s.roundsPerSecond, s.tailQ = 2000, 10, 0, 0.8
	if s.recoveries > 0 {
		s.recoveries = 2
	}
	return &s
}

// The model answers every chart the engine computes, at small n, across
// drags, drags cut short, undos and ingests.
func TestModelMatchesEngine(t *testing.T) {
	for _, name := range []string{"cube-brush", "fused-brush"} {
		t.Run(name, func(t *testing.T) {
			r := newRunner(smoke(t, name), 7, 1, false, t.TempDir())
			r.prepare()
			r.cur = &samples{}
			rng := rand.New(rand.NewSource(3))
			if err := r.setup(rng); err != nil {
				t.Fatal(err)
			}
			defer r.teardown()
			sl := r.brushers[0]
			r.check(sl)
			for i := 0; i < 40; i++ {
				d := randDrag(rng)
				switch i % 5 {
				case 1: // a drag in flight: the live selection shows mid-drag
					n := 1 + rng.Intn(dragEvents-1)
					evs := d.events(sl.t)
					sl.t += dragEvents + 3
					if err := r.feedEvents(sl, d, evs, 0, n); err != nil {
						t.Fatal(err)
					}
					r.check(sl)
					if err := r.feedEvents(sl, d, evs, n, dragEvents); err != nil {
						t.Fatal(err)
					}
				case 3:
					if err := r.undo(sl); err != nil {
						t.Fatal(err)
					}
				case 4:
					if err := r.ingest(); err != nil {
						t.Fatal(err)
					}
				default:
					if err := r.feedDrag(sl, d, dragEvents); err != nil {
						t.Fatal(err)
					}
				}
				r.check(sl)
			}
			if n := r.unexpectedFailures(); n != 0 {
				t.Fatalf("%d checks failed: %v", n, r.errs)
			}
		})
	}
}

// The model itself, on rows small enough to verify by hand.
func TestModelByHand(t *testing.T) {
	m := newModel()
	m.add([]sale{
		{id: 1, region: 0, segment: 1, year: 0, month: 1, weekday: 2, revenue: 10},
		{id: 2, region: 2, segment: 1, year: 1, month: 1, weekday: 2, revenue: 30},
		{id: 3, region: 0, segment: 3, year: 0, month: 2, weekday: 5, revenue: 30},
	})
	jan := uint16(1)
	cube := m.cubeCharts(jan)
	if !cube["REV_region"]["AFRICA|10|1"] || !cube["REV_region"]["ASIA|30|1"] || len(cube["REV_region"]) != 2 {
		t.Errorf("REV_region for January: %v", cube["REV_region"])
	}
	if !cube["REV_weekday"]["2|40|2"] {
		t.Errorf("REV_weekday for January: %v", cube["REV_weekday"])
	}
	f := m.fusedCharts(jan | 2)
	if !f["RANKED"]["2|30|1"] || !f["RANKED"]["3|30|2"] || !f["RANKED"]["1|10|3"] {
		t.Errorf("RANKED ties must break on id: %v", f["RANKED"])
	}
	if !f["LO_segment"]["CORPORATE|10"] || !f["REACH_weekday"]["2|2"] {
		t.Errorf("LO_segment %v REACH_weekday %v", f["LO_segment"], f["REACH_weekday"])
	}
	if got := (drag{downX: 45, moveX: [5]int64{70, 90, 30, 30, 30}}).selectionAfter(dragEvents); got != 0b0110 {
		t.Errorf("a drag from x=45 reaching x=90 selects months 2 and 3, got %012b", got)
	}
}
