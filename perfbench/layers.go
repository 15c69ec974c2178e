package main

import (
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// layerAcc gathers what the traced rounds see beyond their spans: engine
// counter differences around each traced event, and runtime and server
// counters around the whole measurement.
type layerAcc struct {
	tr         *tracer
	counts     pathCounts // engine counter differences over traced events
	fallbacks  int        // fallback delta spans in traced events
	journal    int        // journal records replayed by traced resumes
	lastTrace  map[*server.Session]int64
	allocBytes uint64 // allocated during untraced rounds
	startStats server.Stats
	walAppend0 obs.HistSnapshot
	walSync0   obs.HistSnapshot
	fsyncs0    int64
	recovered  recoveryLayers
}

// recoveryLayers are the separately timed halves of one recovery.
type recoveryLayers struct {
	openMs, replayMs float64
	records          int
}

func newLayerAcc() *layerAcc {
	return &layerAcc{tr: newTracer(), lastTrace: map[*server.Session]int64{}}
}

// stageHists are the engine stage histograms an operation's stage work is
// read from (sort is left out: it nests inside its view's delta span).
var stageHists = []string{
	"dvms_stage_recognize_seconds", "dvms_stage_prepare_seconds",
	"dvms_stage_delta_cube_seconds", "dvms_stage_delta_fused_seconds",
	"dvms_stage_delta_row_seconds", "dvms_stage_delta_fallback_seconds",
	"dvms_stage_render_seconds", "dvms_stage_commit_seconds",
}

// histSum is a histogram's total in a snapshot.
func histSum(s obs.Snapshot, name string) time.Duration {
	return time.Duration(s.Histograms[name].Raw.Sum)
}

func sumOf(s obs.Snapshot, names []string) time.Duration {
	var d time.Duration
	for _, n := range names {
		d += histSum(s, n)
	}
	return d
}

// callName is the layer function an operation's line invokes.
var callName = map[string]string{
	"event":            "server.Session.Feed",
	"undo":             "server.Session.Undo",
	"resume":           "server.Server.Resume",
	"resume-recovered": "server.Server.Resume",
	"detach":           "server.Session.Detach",
}

// traceLine records one served line: its codec halves, the call, and for
// an event the engine's own stage breakdown of it.
func (r *runner) traceLine(op string, sess, next *server.Session, tm wireTimes, before pathCounts, walBefore obs.HistSnapshot) {
	L, t := r.layers, r.tr
	root := t.begin("op."+op, tm.start, tm.end)
	t.child("protocol.decode", root, tm.start, tm.decoded)
	call := t.child(callName[op], root, tm.decoded, tm.called)
	t.child("protocol.encode", root, tm.called, tm.end)
	if op != "event" {
		return
	}
	L.counts = L.counts.plus(r.sessCounts(sess), 1).plus(before, -1)
	st := t.stagesUnder(call)
	if trs, err := sess.Traces(false); err == nil && len(trs) > 0 {
		// One line feeds one event, so its trace is the newest one.
		if tr := trs[len(trs)-1]; tr.ID > L.lastTrace[sess] {
			L.lastTrace[sess] = tr.ID
			st = t.addEngineTrace(call, tr)
			for _, sp := range tr.Spans {
				if sp.Stage == obs.StageDelta && sp.Path == obs.PathFallback {
					L.fallbacks++
				}
			}
		}
	}
	after := r.walAppendHist()
	st.put("wal.append", time.Duration(after.Sum-walBefore.Sum))
}

// traceAttach splits an attach by the new session's stage histograms. The
// engine records plan preparation and the first render there, but not the
// priming of its views' state, so the rest of the call is counted as
// priming: exec.prime is derived, not measured.
func (r *runner) traceAttach(sess *server.Session, start, end time.Time) {
	t := r.tr
	root := t.begin("op.attach", start, end)
	call := t.child("server.Server.Attach", root, start, end)
	snap, err := sess.Obs()
	if err != nil {
		return
	}
	prepare := histSum(snap, "dvms_stage_prepare_seconds")
	render := histSum(snap, "dvms_stage_render_seconds")
	st := t.stagesUnder(call)
	st.put("core.prepare", prepare)
	st.put("render.render", render)
	st.put("exec.prime", end.Sub(start)-prepare-render)
}

// ingestProbe is the stage work recorded so far by the shared engine and
// every brushing session, read before and after an ingest.
type ingestProbe struct {
	base, sessions time.Duration
	wal            obs.HistSnapshot
}

func (r *runner) probeIngest() ingestProbe {
	reg := r.srv.Base().Obs().Registry()
	var p ingestProbe
	for _, name := range stageHists {
		p.base += time.Duration(reg.Hist(name).Snapshot().Sum)
	}
	for _, sl := range r.brushers {
		if snap, err := sl.sess.Obs(); err == nil {
			p.sessions += sumOf(snap, stageHists)
		}
	}
	p.wal = r.walAppendHist()
	return p
}

func (r *runner) traceIngest(before ingestProbe, start, end time.Time) {
	after := r.probeIngest()
	t := r.tr
	root := t.begin("op.ingest", start, end)
	call := t.child("server.Server.InsertRows", root, start, end)
	st := t.stagesUnder(call)
	st.put("core.base_apply", after.base-before.base)
	st.put("server.session_apply", after.sessions-before.sessions)
	st.put("wal.append", time.Duration(after.wal.Sum-before.wal.Sum))
}

// startLayers captures the server and log counters the layer metrics
// difference against.
func (r *runner) startLayers() {
	L := r.layers
	L.startStats = r.srv.Stats()
	if lg := r.srv.Log(); lg != nil {
		reg := r.srv.Base().Obs().Registry()
		L.walAppend0 = reg.Hist("dvms_wal_append_seconds").Snapshot()
		L.walSync0 = reg.Hist("dvms_wal_fsync_seconds").Snapshot()
		L.fsyncs0 = lg.Stats().Fsyncs
	}
}

// layerNames are the per-layer metrics a traced run prints, in the order
// BENCHMARK.json lists them.
var layerNames = []string{
	"events.recognize_us", "core.commit_us", "core.undo_us", "core.fallback_views_per_event",
	"core.delta_applies_per_event", "core.delta_rows_in_per_event", "core.store_bytes",
	"exec.cube_us", "exec.cube_bins_per_event", "exec.fused_us", "exec.fused_rows_per_event",
	"exec.row_us", "exec.fallback_us", "exec.sort_self_us", "exec.topk_emits_per_event",
	"exec.prime_ms_per_attach", "core.prepare_ms_per_attach",
	"exec.share_builds", "exec.share_reuses", "exec.shared_state_bytes",
	"render.render_us", "render.passes_per_event",
	"server.session_apply_ms_per_ingest", "server.journal_records_per_resume",
	"server.journal_bytes", "server.private_bytes_per_session", "server.recovery_p50_ms",
	"wal.append_us", "wal.fsync_us", "wal.fsyncs", "wal.log_mb",
	"wal.open_ms", "core.replay_ms", "wal.records_recovered",
	"protocol.codec_us",
	"runtime.alloc_bytes_per_event", "runtime.gc_cycles", "runtime.gc_pause_ms",
	"obs.unattributed_us", "obs.trace_overhead_pct",
}

// metric is one named figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerMetrics folds the traced rounds into the per-layer metrics.
func (r *runner) layerMetrics(untraced, traced *samples, logBytes int64) map[string]metric {
	L := r.layers
	var events, undos, attaches, ingests, resumes, wireOps, ops int
	self := map[string]time.Duration{}
	attachSelf := map[string]time.Duration{}
	var unattributed time.Duration
	for _, b := range L.tr.breakdowns() {
		ops++
		unattributed += b.unattributed
		switch b.root {
		case "op.event":
			events++
		case "op.undo":
			undos++
		case "op.attach":
			attaches++
		case "op.ingest":
			ingests++
		case "op.resume":
			resumes++
		}
		if _, ok := callName[strings.TrimPrefix(b.root, "op.")]; ok {
			wireOps++
		}
		for k, v := range b.self {
			if b.root == "op.attach" {
				attachSelf[k] += v
			} else {
				self[k] += v
			}
		}
	}
	per := func(d time.Duration, n int, unit time.Duration) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(unit) / float64(n)
	}
	count := func(c int64, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(c) / float64(n)
	}
	end := r.srv.Stats()
	snap := r.srv.ObsSnapshot()
	// Cube tiles and shared join sides live in the server's share group;
	// the engines' dvms_tile_bytes gauge does not see them.
	sharedStates := end.SharedBytes - r.srv.Base().ApproxBytes()
	var walAppendUs, walSyncUs, fsyncs float64
	if lg := r.srv.Log(); lg != nil {
		reg := r.srv.Base().Obs().Registry()
		a := reg.Hist("dvms_wal_append_seconds").Snapshot()
		s := reg.Hist("dvms_wal_fsync_seconds").Snapshot()
		walAppendUs = per(time.Duration(a.Sum-L.walAppend0.Sum), int(a.Count-L.walAppend0.Count), time.Microsecond)
		walSyncUs = per(time.Duration(s.Sum-L.walSync0.Sum), int(s.Count-L.walSync0.Count), time.Microsecond)
		fsyncs = float64(lg.Stats().Fsyncs - L.fsyncs0)
	}
	privPerSession := 0.0
	if end.Sessions > 0 {
		privPerSession = float64(end.PrivateBytesTotal) / float64(end.Sessions)
	}
	var overhead float64
	if len(untraced.event) > 0 && len(traced.event) > 0 {
		overhead = (median(sorted(traced.event))/median(sorted(untraced.event)) - 1) * 100
	}
	us, ms := time.Microsecond, time.Millisecond
	return map[string]metric{
		"events.recognize_us":                {per(self["events.recognize"], events, us), "us/event"},
		"core.commit_us":                     {per(self["core.commit"], events, us), "us/event"},
		"core.undo_us":                       {per(self["server.Session.Undo"], undos, us), "us/undo"},
		"core.fallback_views_per_event":      {count(int64(L.fallbacks), events), "count"},
		"core.delta_applies_per_event":       {count(L.counts.deltaApplies, events), "count"},
		"core.delta_rows_in_per_event":       {count(L.counts.deltaRowsIn, events), "count"},
		"core.store_bytes":                   {snap.Gauges["dvms_store_bytes"], "B"},
		"exec.cube_us":                       {per(self["exec.cube"], events, us), "us/event"},
		"exec.cube_bins_per_event":           {count(L.counts.cubeBins, events), "count"},
		"exec.fused_us":                      {per(self["exec.fused"], events, us), "us/event"},
		"exec.fused_rows_per_event":          {count(L.counts.batchRows, events), "count"},
		"exec.row_us":                        {per(self["exec.row"], events, us), "us/event"},
		"exec.fallback_us":                   {per(self["exec.fallback"], events, us), "us/event"},
		"exec.sort_self_us":                  {per(self["exec.sort"], events, us), "us/event"},
		"exec.topk_emits_per_event":          {count(L.counts.topkEmits, events), "count"},
		"exec.prime_ms_per_attach":           {per(attachSelf["exec.prime"], attaches, ms), "ms"},
		"core.prepare_ms_per_attach":         {per(attachSelf["core.prepare"], attaches, ms), "ms"},
		"exec.share_builds":                  {float64(end.Share.Builds - L.startStats.Share.Builds), "count"},
		"exec.share_reuses":                  {float64(end.Share.Reuses - L.startStats.Share.Reuses), "count"},
		"exec.shared_state_bytes":            {float64(sharedStates), "B"},
		"render.render_us":                   {per(self["render.render"], events, us), "us/event"},
		"render.passes_per_event":            {count(L.counts.renderPasses, events), "count"},
		"server.session_apply_ms_per_ingest": {per(self["server.session_apply"], ingests, ms), "ms"},
		"server.journal_records_per_resume":  {count(int64(L.journal), resumes), "count"},
		"server.journal_bytes":               {float64(end.JournalBytes), "B"},
		"server.private_bytes_per_session":   {privPerSession, "B"},
		"server.recovery_p50_ms":             {0, "ms"}, // filled by the durable end phase
		"wal.append_us":                      {walAppendUs, "us"},
		"wal.fsync_us":                       {walSyncUs, "us"},
		"wal.fsyncs":                         {fsyncs, "count"},
		"wal.log_mb":                         {float64(logBytes) / 1e6, "MB"},
		"protocol.codec_us":                  {per(self["protocol.decode"]+self["protocol.encode"], wireOps, us), "us/op"},
		"runtime.alloc_bytes_per_event":      {count(int64(L.allocBytes), len(untraced.event)), "B"},
		"runtime.gc_cycles":                  {float64(r.gcCycles), "count"},
		"runtime.gc_pause_ms":                {float64(r.gcPause) / 1e6, "ms"},
		"obs.unattributed_us":                {per(unattributed, ops, us), "us/op"},
		"obs.trace_overhead_pct":             {overhead, "%"},
	}
}

// overlaps counts traced operations where some stage outlasts its parent
// span by more than the engine's microsecond rounding: there the self
// times would not add up to the operation.
func (L *layerAcc) overlaps() int {
	n := 0
	for _, b := range L.tr.breakdowns() {
		if b.overlap {
			n++
		}
	}
	return n
}
