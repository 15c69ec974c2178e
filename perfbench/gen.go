package main

import (
	"math/rand"

	"repro/internal/events"
	"repro/internal/relation"
)

// sale is one generated order line, kept as small ints so the correctness
// model never has to read the engine's tuples.
type sale struct {
	id                                    int64
	region, segment, year, month, weekday int // indexes; month and weekday 1-based
	revenue                               int64
}

func (s sale) tuple() relation.Tuple {
	return relation.Tuple{
		relation.Int(s.id),
		relation.String(regions[s.region]),
		relation.String(segments[s.segment]),
		relation.Int(years[s.year]),
		relation.Int(int64(s.month)),
		relation.Int(int64(s.weekday)),
		relation.Int(s.revenue),
	}
}

// rowGen draws order lines from one seeded stream; ids are sequential, so
// base rows and every ingested batch stay distinct.
type rowGen struct {
	rng    *rand.Rand
	nextID int64
}

func newRowGen(seed int64) *rowGen { return &rowGen{rng: rand.New(rand.NewSource(seed)), nextID: 1} }

func (g *rowGen) next() sale {
	s := sale{
		id:      g.nextID,
		region:  g.rng.Intn(len(regions)),
		segment: g.rng.Intn(len(segments)),
		year:    g.rng.Intn(len(years)),
		month:   1 + g.rng.Intn(months),
		weekday: 1 + g.rng.Intn(weekdays),
		revenue: 1 + g.rng.Int63n(maxRevenue),
	}
	g.nextID++
	return s
}

// batch draws n rows and their engine tuples.
func (g *rowGen) batch(n int) ([]sale, []relation.Tuple) {
	rows := make([]sale, n)
	tuples := make([]relation.Tuple, n)
	for i := range rows {
		rows[i] = g.next()
		tuples[i] = rows[i].tuple()
	}
	return rows, tuples
}

// drag is one brush over the month axis: a press, five moves and a release.
type drag struct {
	downX int64
	moveX [5]int64
}

// randDrag anchors the press at a seeded point of the axis's left half and
// moves right one month step per move, so every move adds one month to the
// selection and every drag does the same amount of work wherever it lands.
func randDrag(rng *rand.Rand) drag {
	d := drag{downX: axisX0 + axisStep/2 + rng.Int63n(6*axisStep)}
	for i := range d.moveX {
		d.moveX[i] = d.downX + axisStep*int64(i+1)
	}
	return d
}

// dragEvents is the number of events in one drag.
const dragEvents = 7

// selectionAfter is the set of months the drag selects once its first fed
// events (1..dragEvents) have arrived, as a bitmask (bit m-1 for month m),
// through the axis formula: months whose x lies between the press and the
// rightmost point reached.
func (d drag) selectionAfter(fed int) uint16 {
	hi := d.downX
	for _, x := range d.moveX[:min(fed-1, len(d.moveX))] {
		hi = max(hi, x)
	}
	var sel uint16
	for m := 1; m <= months; m++ {
		if x := monthX(m); x >= d.downX && x <= hi {
			sel |= 1 << (m - 1)
		}
	}
	return sel
}

// allMonths is the selection of an empty drag table.
const allMonths uint16 = 1<<months - 1

// mouse is one mouse event as a client sends it.
type mouse struct {
	typ     string
	t, x, y int64
}

// events renders the drag as the seven mouse events a client sends, with
// timestamps from t.
func (d drag) events(t int64) []mouse {
	const y = 45
	evs := make([]mouse, 0, dragEvents)
	evs = append(evs, mouse{events.MouseDown, t, d.downX, y})
	for i, x := range d.moveX {
		evs = append(evs, mouse{events.MouseMove, t + 1 + int64(i), x, y})
	}
	return append(evs, mouse{events.MouseUp, t + 6, d.moveX[4], y})
}
