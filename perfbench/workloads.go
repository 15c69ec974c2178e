package main

import (
	"fmt"
	"math/rand"
)

// workload is one traffic mix over one program. Every count here is per
// round; a run plays a fixed number of whole rounds, planned from the seed
// before the timed phase starts, so two runs of one workload and seed
// attempt the same operations whatever the speed of the build.
type workload struct {
	name    string
	fused   bool // the fused program (else the cube program)
	rows    int  // base rows
	durable bool // WAL-backed server with -fsync interval

	brushers int // long-lived brushing sessions
	drags    int // brushing drags per round, round-robin over brushers
	undos    int // undos per round, each right after a brushing drag
	ingests  int // ingest batches per round
	batch    int // rows per ingest batch
	viewers  int // viewers per round: attach, one drag, detach
	drops    int // short-lived sessions per round, dropped and resumed

	// A dropped session's journal: dropDrags whole drags plus a seeded
	// 0..dropPartial events of one more, so a resume may land mid-drag.
	dropDrags, dropPartial int

	roundsPerSecond float64 // rounds per --seconds second on the reference host
	minRounds       int     // floor, so every median has its samples
	tailQ           float64 // the quantile event_tail_us reports
	recoveries      int     // durable only: recoveries from copies of the sealed log
}

var workloads = []*workload{
	{
		name: "cube-brush",
		rows: 1_000_000, brushers: 8,
		drags: 50, undos: 5, ingests: 1, batch: 1000, viewers: 2, drops: 1,
		dropDrags: 2, dropPartial: 6,
		roundsPerSecond: 11, minRounds: 20, tailQ: 0.99,
	},
	{
		name:  "fused-brush",
		fused: true, rows: 20_000, brushers: 2,
		drags: 10, undos: 1, ingests: 2, batch: 50, viewers: 1, drops: 1,
		dropDrags: 1, dropPartial: 0,
		roundsPerSecond: 0.7, minRounds: 12, tailQ: 0.99,
	},
	{
		name:    "durable-resume",
		durable: true, rows: 60_000, brushers: 8,
		drags: 12, undos: 1, ingests: 2, batch: 25, viewers: 1, drops: 1,
		dropDrags: 3, dropPartial: 6,
		roundsPerSecond: 20, minRounds: 20, tailQ: 0.95, recoveries: 7,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// rounds is the fixed round count of a run of the given length.
func (w *workload) rounds(seconds int) int {
	return max(w.minRounds, int(w.roundsPerSecond*float64(seconds)+0.5))
}

type stepKind int

const (
	stepDrag   stepKind = iota // a brushing drag on slot
	stepUndo                   // an undo on slot
	stepIngest                 // one ingest batch
	stepViewer                 // attach, drag, check, detach
	stepDrop                   // attach, journal, drop, sweep, evict, resume, check, detach
)

// step is one planned action of a round.
type step struct {
	kind    stepKind
	slot    int
	drag    drag
	check   bool   // check the slot against the model after this drag
	journal []drag // stepDrop: the dropped session's drags
	partial int    // stepDrop: events fed of one more drag
	sweep   []drag // stepDrop: one drag per brusher between drop and evict
}

// planRound draws one round from rng: brushing drags round-robin from
// slot next, undos and ingests after seeded drags, one seeded drag end
// checked, then the viewers and the dropped sessions.
func (w *workload) planRound(rng *rand.Rand, next *int) []step {
	undoAfter := pick(rng, w.drags, w.undos)
	ingestAfter := pick(rng, w.drags, w.ingests)
	checkAt := rng.Intn(w.drags)
	var out []step
	for i := 0; i < w.drags; i++ {
		slot := *next % w.brushers
		*next++
		out = append(out, step{kind: stepDrag, slot: slot, drag: randDrag(rng), check: i == checkAt})
		// An undo resets the session's delta state, and the next delta it
		// receives re-primes every selection view: 30 ms of fused-brush
		// work against 0.4 ms for the fan-out itself. An ingest therefore
		// goes before an undo drawn at the same point, never right after
		// one, so which ingests pay the re-prime does not depend on the
		// seed.
		if ingestAfter[i] {
			out = append(out, step{kind: stepIngest})
		}
		if undoAfter[i] {
			out = append(out, step{kind: stepUndo, slot: slot})
		}
	}
	for i := 0; i < w.viewers; i++ {
		out = append(out, step{kind: stepViewer, drag: randDrag(rng)})
	}
	for i := 0; i < w.drops; i++ {
		st := step{kind: stepDrop}
		for j := 0; j <= w.dropDrags; j++ {
			st.journal = append(st.journal, randDrag(rng))
		}
		if w.dropPartial > 0 {
			st.partial = rng.Intn(w.dropPartial + 1)
		}
		for j := 0; j < w.brushers; j++ {
			st.sweep = append(st.sweep, randDrag(rng))
		}
		out = append(out, st)
	}
	return out
}

// pick marks k distinct positions of n, drawn from rng.
func pick(rng *rand.Rand, n, k int) []bool {
	marks := make([]bool, n)
	for _, i := range rng.Perm(n)[:min(k, n)] {
		marks[i] = true
	}
	return marks
}
