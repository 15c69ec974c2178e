package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/render"
	"repro/internal/server"
	"repro/internal/wal"
)

// slot is one client session and what the model says it shows.
type slot struct {
	sess *server.Session
	t    int64    // next event timestamp
	hist []uint16 // committed selections, oldest first; undo re-commits the one before last
	cur  uint16   // live selection, including a drag in flight
}

func newSlot(sess *server.Session) *slot {
	return &slot{sess: sess, t: 1, hist: []uint16{allMonths}, cur: allMonths}
}

// pathCounts are the engine counters the path guards and layer metrics
// read, summed over session lifetimes.
type pathCounts struct {
	deltaApplies, deltaRowsIn, renderPasses     int64
	cubeHits, cubeBins, fusedApplies, batchRows int64
	rowFallbacks, topkEmits                     int64
}

func countsOf(s core.Stats) pathCounts {
	return pathCounts{
		deltaApplies: int64(s.ViewDeltaApplies), deltaRowsIn: int64(s.DeltaRowsIn),
		renderPasses: int64(s.RenderPasses),
		cubeHits:     s.Cube.Hits, cubeBins: s.Cube.BinsAnswered,
		fusedApplies: s.Exec.FusedApplies, batchRows: s.Exec.BatchRows,
		rowFallbacks: s.Exec.RowFallbacks, topkEmits: s.TopK.PrefixEmits,
	}
}

func (a pathCounts) plus(b pathCounts, sign int64) pathCounts {
	return pathCounts{
		a.deltaApplies + sign*b.deltaApplies, a.deltaRowsIn + sign*b.deltaRowsIn,
		a.renderPasses + sign*b.renderPasses,
		a.cubeHits + sign*b.cubeHits, a.cubeBins + sign*b.cubeBins,
		a.fusedApplies + sign*b.fusedApplies, a.batchRows + sign*b.batchRows,
		a.rowFallbacks + sign*b.rowFallbacks, a.topkEmits + sign*b.topkEmits,
	}
}

// samples are one measured phase's latencies and volume.
type samples struct {
	event, attach, resume, ingest []float64 // µs, ms, ms, ms
	wall                          time.Duration
	rounds                        []roundMark
}

// roundMark closes one round: how many event samples the phase held at its
// end, and the system time it took.
type roundMark struct {
	events int
	wall   time.Duration
}

// opCount tallies one operation type.
type opCount struct{ attempted, failed int }

// dropGap is how much longer a dropped session idles than any other before
// EvictIdle picks it out by idle age.
const dropGap = 4 * time.Millisecond

type runner struct {
	w       *workload
	seed    int64
	seconds int
	tracing bool   // a traced run: odd rounds trace
	dir     string // scratch directory for logs

	program string
	scale   int64 // cube bar height divisor
	cfg     server.Config

	gen      *rowGen
	base     []relation.Tuple
	model    *model
	srv      *server.Server
	wire     wire
	brushers []*slot
	plan     [][]step

	ops     map[string]*opCount
	opOrder []string
	errs    []string

	cur      *samples // the phase being measured (untraced or traced rounds)
	excluded time.Duration
	counts   pathCounts // lifetime engine counters of every session

	tr     *tracer // non-nil while a traced round runs
	layers *layerAcc

	gcCycles uint32        // collections during the timed phase
	gcPause  time.Duration // their stop-the-world pauses
}

func newRunner(w *workload, seed int64, seconds int, tracing bool, dir string) *runner {
	r := &runner{w: w, seed: seed, seconds: seconds, tracing: tracing, dir: dir, ops: map[string]*opCount{}}
	if w.fused {
		r.program = fusedProgram()
	} else {
		r.scale = barScale(w.rows)
		r.program = cubeProgram(r.scale)
	}
	r.cfg = server.Config{Engine: core.Config{Width: fbWidth, Height: fbHeight}}
	return r
}

// note records one attempted operation of the given type.
func (r *runner) note(op string, err error) {
	c := r.ops[op]
	if c == nil {
		c = &opCount{}
		r.ops[op] = c
		r.opOrder = append(r.opOrder, op)
	}
	c.attempted++
	if err != nil {
		c.failed++
		if len(r.errs) < 10 {
			r.errs = append(r.errs, fmt.Sprintf("%s: %v", op, err))
		}
	}
}

// exclude runs f outside the measured time: row generation, model upkeep
// and checks are the benchmark's work, not the system's. Trace bookkeeping
// is not excluded, so the traced rounds' figures show its overhead.
func (r *runner) exclude(f func()) {
	t := time.Now()
	f()
	r.excluded += time.Since(t)
}

// ---- set-up ----

// prepare generates the base rows once; every set-up reuses them.
func (r *runner) prepare() {
	r.gen = newRowGen(r.seed)
	rows, tuples := r.gen.batch(r.w.rows)
	r.base = tuples
	r.model = newModel()
	r.model.add(rows)
}

// setup builds the server, loads the base rows, attaches the brushing
// sessions and gives each one warm-up drag. It is the set-up users wait
// for before the first interaction.
func (r *runner) setup(rng *rand.Rand) error {
	var err error
	if r.w.durable {
		opts := wal.Options{Dir: filepath.Join(r.dir, "wal"), Policy: wal.SyncInterval}
		r.srv, _, err = server.NewDurable(r.cfg, r.program, opts)
	} else {
		r.srv, err = server.New(r.cfg, r.program)
	}
	if err != nil {
		return fmt.Errorf("build server: %w", err)
	}
	r.wire = wire{srv: r.srv}
	if err := r.srv.InsertRows("Sales", r.base); err != nil {
		return fmt.Errorf("base ingest: %w", err)
	}
	r.brushers = nil
	for i := 0; i < r.w.brushers; i++ {
		sess, err := r.srv.Attach()
		if err != nil {
			return fmt.Errorf("attach: %w", err)
		}
		r.brushers = append(r.brushers, newSlot(sess))
	}
	for _, sl := range r.brushers {
		if err := r.feedDrag(sl, randDrag(rng), dragEvents); err != nil {
			return fmt.Errorf("warm-up drag: %w", err)
		}
	}
	return nil
}

// teardown releases a set-up's server and its log.
func (r *runner) teardown() error {
	if r.srv != nil {
		if err := r.srv.Shutdown(); err != nil {
			return err
		}
		for _, sl := range r.brushers {
			sl.sess.Detach()
		}
	}
	r.srv, r.brushers = nil, nil
	return os.RemoveAll(filepath.Join(r.dir, "wal"))
}

// ---- operations ----

// line serves one request line and records it as an operation of type op.
// Events and undos are interaction operations.
func (r *runner) line(op string, sess *server.Session, line []byte) (*server.Session, error) {
	var before pathCounts
	var walBefore obs.HistSnapshot
	if r.tr != nil && op == "event" {
		before, walBefore = r.sessCounts(sess), r.walAppendHist()
	}
	_, next, tm, err := r.wire.serve(sess, line)
	r.note(op, err)
	if err != nil {
		return next, err
	}
	lat := tm.end.Sub(tm.start)
	switch op {
	case "event", "undo":
		r.cur.event = append(r.cur.event, float64(lat.Nanoseconds())/1e3)
	case "resume":
		r.cur.resume = append(r.cur.resume, float64(lat.Nanoseconds())/1e6)
	}
	if r.tr != nil {
		r.traceLine(op, sess, next, tm, before, walBefore)
	}
	return next, nil
}

// feedDrag sends the first n events of a drag to a session and advances
// the session's model state.
func (r *runner) feedDrag(sl *slot, d drag, n int) error {
	evs := d.events(sl.t)
	sl.t += dragEvents + 3
	return r.feedEvents(sl, d, evs, 0, n)
}

// feedEvents sends evs[from:to] of drag d; after each one the live
// selection is the drag's selection so far, and the release commits it.
func (r *runner) feedEvents(sl *slot, d drag, evs []mouse, from, to int) error {
	for i := from; i < to; i++ {
		if _, err := r.line("event", sl.sess, eventLine(evs[i])); err != nil {
			return err
		}
		sl.cur = d.selectionAfter(i + 1)
		if i+1 == dragEvents {
			sl.hist = append(sl.hist, sl.cur)
		}
	}
	return nil
}

func (r *runner) undo(sl *slot) error {
	if _, err := r.line("undo", sl.sess, undoLine()); err != nil {
		return err
	}
	sl.cur = sl.hist[len(sl.hist)-2]
	sl.hist = append(sl.hist, sl.cur)
	return nil
}

// attach opens a new viewer session and times it until its charts are
// primed.
func (r *runner) attach() (*slot, error) {
	start := time.Now()
	sess, err := r.srv.Attach()
	end := time.Now()
	r.note("attach", err)
	if err != nil {
		return nil, err
	}
	r.cur.attach = append(r.cur.attach, float64(end.Sub(start).Nanoseconds())/1e6)
	if r.tr != nil {
		r.traceAttach(sess, start, end)
	}
	return newSlot(sess), nil
}

// ingest inserts one batch of fresh rows through the single writer.
func (r *runner) ingest() error {
	var rows []sale
	var tuples []relation.Tuple
	r.exclude(func() { rows, tuples = r.gen.batch(r.w.batch) })
	var before ingestProbe
	if r.tr != nil {
		before = r.probeIngest()
	}
	start := time.Now()
	err := r.srv.InsertRows("Sales", tuples)
	end := time.Now()
	r.note("ingest", err)
	if err != nil {
		return err
	}
	r.cur.ingest = append(r.cur.ingest, float64(end.Sub(start).Nanoseconds())/1e6)

	r.exclude(func() { r.model.add(rows) })
	if r.tr != nil {
		r.traceIngest(before, start, end)
	}
	return nil
}

// retire folds a session's engine counters into the lifetime totals.
func (r *runner) retire(sl *slot) {
	r.exclude(func() {
		st, err := sl.sess.Stats()
		if err == nil {
			r.counts = r.counts.plus(countsOf(st), 1)
		}
	})
}

func (r *runner) detach(sl *slot) error {
	r.retire(sl)
	_, err := r.line("detach", sl.sess, detachLine())
	return err
}

// ---- checks ----

// check compares a session's charts and rendered bars with the model's
// answer for its live selection. A failed check is a failed operation.
func (r *runner) check(sl *slot) {
	var err error
	r.exclude(func() { err = r.checkSession(sl.sess, sl.cur) })
	r.note("check", err)
}

func (r *runner) checkSession(sess *server.Session, sel uint16) error {
	want := r.model.cubeCharts(sel)
	if r.w.fused {
		want = r.model.fusedCharts(sel)
	}
	for view, ch := range want {
		rel, err := sess.Relation(view)
		if err != nil {
			return err
		}
		if err := diffCharts(view, ch, relationChart(rel)); err != nil {
			return fmt.Errorf("selection %012b: %w", sel, err)
		}
	}
	return r.checkBars(sess.Image(), sel)
}

// checkBars is the property check on the framebuffer: every bar's painted
// height equals its chart value through the program's height formula.
func (r *runner) checkBars(im *render.Image, sel uint16) error {
	type bar struct{ x, h int64 }
	var bars []bar
	if r.w.fused {
		top := r.model.leaderboard(sel)
		for rank := int64(1); rank <= topK; rank++ {
			b := bar{x: rankBarX(rank)}
			if int(rank) <= len(top) {
				b.h = top[rank-1].revenue / rankBarScale
			}
			bars = append(bars, b)
		}
	} else {
		for i, total := range r.model.regionTotals(sel) {
			bars = append(bars, bar{x: regionBarX(i), h: total / r.scale})
		}
	}
	bg := im.At(0, fbHeight-1)
	for _, b := range bars {
		x := int(b.x) + barWidth/2
		var h int64
		for y := barBase - 1; y >= 0 && im.At(x, y) != bg; y-- {
			h++
		}
		if h != b.h {
			return fmt.Errorf("selection %012b: bar at x=%d painted %d px high, chart says %d", sel, b.x, h, b.h)
		}
	}
	return nil
}

// ---- the timed phase ----

// runStep plays one planned step.
func (r *runner) runStep(st step) error {
	switch st.kind {
	case stepDrag:
		sl := r.brushers[st.slot]
		if err := r.feedDrag(sl, st.drag, dragEvents); err != nil {
			return err
		}
		if st.check {
			r.check(sl)
		}
	case stepUndo:
		return r.undo(r.brushers[st.slot])
	case stepIngest:
		return r.ingest()
	case stepViewer:
		sl, err := r.attach()
		if err != nil {
			return err
		}
		if err := r.feedDrag(sl, st.drag, dragEvents); err != nil {
			return err
		}
		r.check(sl)
		return r.detach(sl)
	case stepDrop:
		return r.dropAndResume(st)
	}
	return nil
}

// dropAndResume plays one short-lived session: attach, a seeded journal,
// the client goes away, the server evicts it for idleness, and the client
// comes back with its token. The session must resume exactly where it
// dropped, mid-drag if it dropped mid-drag, and then finishes its drag.
func (r *runner) dropAndResume(st step) error {
	sl, err := r.attach()
	if err != nil {
		return err
	}
	whole := st.journal[:r.w.dropDrags]
	for _, d := range whole {
		if err := r.feedDrag(sl, d, dragEvents); err != nil {
			return err
		}
	}
	var rest []mouse
	var last drag
	if r.w.dropPartial > 0 {
		last = st.journal[r.w.dropDrags]
		rest = last.events(sl.t)
		sl.t += dragEvents + 3
		if err := r.feedEvents(sl, last, rest, 0, st.partial); err != nil {
			return err
		}
	}
	r.retire(sl)
	if r.tr != nil {
		r.layers.journal += 1 + r.w.dropDrags*dragEvents + st.partial // attach + events
	}

	// Every other session must be used after the dropped one goes idle, so
	// idle age singles it out.
	idleSince := time.Now()
	r.exclude(func() { time.Sleep(dropGap - time.Since(idleSince)) })
	for i, d := range st.sweep {
		if err := r.feedDrag(r.brushers[i], d, dragEvents); err != nil {
			return err
		}
	}
	if err := r.evict(time.Since(idleSince) - dropGap/2); err != nil {
		return err
	}
	next, err := r.line("resume", nil, resumeLine(sl.sess.Token()))
	if err != nil {
		return err
	}
	sl.sess = next
	r.check(sl)
	if err := r.feedEvents(sl, last, rest, st.partial, len(rest)); err != nil {
		return err
	}
	return r.detach(sl)
}

// evict drops the sessions idle for at least olderThan; exactly one must go.
func (r *runner) evict(olderThan time.Duration) error {
	start := time.Now()
	n := r.srv.EvictIdle(olderThan)
	end := time.Now()
	var err error
	if n != 1 {
		err = fmt.Errorf("evicted %d sessions, want 1", n)
	}
	r.note("evict", err)
	if r.tr != nil {
		root := r.tr.begin("op.evict", start, end)
		r.tr.child("server.Server.EvictIdle", root, start, end)
	}
	return err
}

// planAll draws every round of the run from the seed.
func (r *runner) planAll(rng *rand.Rand) {
	next := 0
	r.plan = make([][]step, r.w.rounds(r.seconds))
	for i := range r.plan {
		r.plan[i] = r.w.planRound(rng, &next)
	}
}

// measure plays every round. In a traced run the odd rounds are traced, so
// the traced and untraced figures come from the same mix of rounds. The
// collector runs as it does in dvms-serve, at the default GOGC, so its
// concurrent marks, write barriers and assists fall in the measured
// operations; one full collection before the first round starts every run
// from the same heap.
func (r *runner) measure(untraced, traced *samples) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	gc0, pause0 := ms.NumGC, ms.PauseTotalNs
	for i, round := range r.plan {
		r.cur = untraced
		if r.tracing && i%2 == 1 {
			r.cur = traced
			r.tr = r.layers.tr
		}
		a0 := ms.TotalAlloc
		r.excluded = 0
		start := time.Now()
		for _, st := range round {
			if err := r.runStep(st); err != nil && len(r.errs) >= 10 {
				break
			}
		}
		wall := time.Since(start) - r.excluded
		if err := r.checkRotation(); err != nil {
			r.note("log-rotation", err)
			return
		}
		if r.tracing {
			runtime.ReadMemStats(&ms)
			if r.tr == nil {
				r.layers.allocBytes += ms.TotalAlloc - a0
			}
		}
		r.cur.wall += wall
		r.cur.rounds = append(r.cur.rounds, roundMark{len(r.cur.event), wall})
		r.tr = nil
	}
	runtime.ReadMemStats(&ms)
	r.gcCycles = ms.NumGC - gc0
	r.gcPause = time.Duration(ms.PauseTotalNs - pause0)
}

// maxRotations bounds the log segments one run may start. A segment holds
// 8 MiB, and a run appends a few MB; many more means every append rotates
// and rewrites the whole-state checkpoint, which fills a disk in minutes.
const maxRotations = 20

// checkRotation stops the run once the log has rotated more than
// maxRotations times.
func (r *runner) checkRotation() error {
	if lg := r.srv.Log(); lg != nil {
		if n := lg.Stats().SegmentsWritten; n > maxRotations {
			return fmt.Errorf("the log started %d segments, more than %d: every append is rotating", n, maxRotations)
		}
	}
	return nil
}

// walAppendHist reads the shared engine's WAL append histogram (zero for a
// non-durable server).
func (r *runner) walAppendHist() obs.HistSnapshot {
	if r.srv.Log() == nil {
		return obs.HistSnapshot{}
	}
	return r.srv.Base().Obs().Registry().Hist("dvms_wal_append_seconds").Snapshot()
}

func (r *runner) sessCounts(sess *server.Session) pathCounts {
	st, err := sess.Stats()
	if err != nil {
		return pathCounts{}
	}
	return countsOf(st)
}

// opSummary renders the per-type operation counts.
func (r *runner) opSummary() string {
	var b strings.Builder
	for _, op := range r.opOrder {
		c := r.ops[op]
		fmt.Fprintf(&b, " %s=%d/%d", op, c.attempted-c.failed, c.attempted)
	}
	return strings.TrimSpace(b.String())
}

// knownFault is the one operation allowed to fail: the rotation probe
// fails on every run until the log stops rewriting a checkpoint larger
// than a segment on every append.
const knownFault = "rotation-probe"

// unexpectedFailures counts the failed operations other than the known
// fault; any makes the run incorrect.
func (r *runner) unexpectedFailures() int {
	n := 0
	for op, c := range r.ops {
		if op != knownFault {
			n += c.failed
		}
	}
	return n
}

func (r *runner) totals() (attempted, failed int) {
	for _, c := range r.ops {
		attempted += c.attempted
		failed += c.failed
	}
	return attempted, failed
}
