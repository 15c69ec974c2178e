package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
)

// span is one timed interval of the traced run. Times are nanoseconds since
// the tracer started. Parent is the index of the enclosing span (-1 for an
// operation's root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory until the run ends. Spans come from the
// benchmark's own code around each call into a layer; the stages inside a
// Session.Feed come from the engine's per-event obs.Trace, and the stages
// inside Attach and InsertRows from obs histogram differences around the
// call. Those stages carry real durations but no start times of their own:
// the tracer lays them end to end from their parent's start.
type tracer struct {
	t0    time.Time
	spans []span
	op    int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// begin opens a new operation's root span and returns its index.
func (t *tracer) begin(name string, start, end time.Time) int {
	t.op++
	return t.add(name, -1, t.ns(start), t.ns(end))
}

func (t *tracer) add(name string, parent int, start, end int64) int {
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: t.op})
	return len(t.spans) - 1
}

// child adds a span at explicit times under parent.
func (t *tracer) child(name string, parent int, start, end time.Time) int {
	return t.add(name, parent, t.ns(start), t.ns(end))
}

// stages lays durations end to end from parent's start: the cursor is where
// the next stage begins.
type stages struct {
	t      *tracer
	parent int
	cursor int64
}

func (t *tracer) stagesUnder(parent int) *stages {
	return &stages{t: t, parent: parent, cursor: t.spans[parent].Start}
}

func (s *stages) put(name string, d time.Duration) int {
	if d <= 0 {
		return -1
	}
	i := s.t.add(name, s.parent, s.cursor, s.cursor+int64(d))
	s.cursor += int64(d)
	return i
}

// stageName maps an engine trace span to its layer-qualified stage name.
func stageName(sp obs.Span) string {
	switch sp.Stage {
	case obs.StageRecognize:
		return "events.recognize"
	case obs.StagePrepare:
		return "core.prepare"
	case obs.StageSort:
		return "exec.sort"
	case obs.StageRender:
		return "render.render"
	case obs.StageCommit:
		return "core.commit"
	case obs.StageDelta:
		return "exec." + sp.Path
	}
	return "engine." + sp.Stage
}

// addEngineTrace nests an engine event trace under the Feed span: each
// delta span contains the sort spans the engine recorded for its view just
// before it (the sort runs inside the view's delta apply). It returns the
// cursor after the last stage, for work the trace does not cover.
func (t *tracer) addEngineTrace(feed int, tr obs.Trace) *stages {
	st := t.stagesUnder(feed)
	var pendingSort []obs.Span
	for _, sp := range tr.Spans {
		if sp.Stage == obs.StageSort {
			pendingSort = append(pendingSort, sp)
			continue
		}
		at := st.cursor
		idx := st.put(stageName(sp), time.Duration(sp.DurUS*1e3))
		if sp.Stage != obs.StageDelta {
			continue
		}
		inner := &stages{t: t, parent: idx, cursor: at}
		kept := pendingSort[:0]
		for _, srt := range pendingSort {
			if srt.View == sp.View && idx >= 0 {
				inner.put(stageName(srt), time.Duration(srt.DurUS*1e3))
			} else {
				kept = append(kept, srt)
			}
		}
		pendingSort = kept
	}
	for _, srt := range pendingSort { // a sort with no enclosing delta span
		st.put(stageName(srt), time.Duration(srt.DurUS*1e3))
	}
	return st
}

// overlapSlack absorbs the rounding of engine stage durations, which the
// engine reports in microseconds to three decimals.
const overlapSlack = 2 * time.Microsecond

// wrappers are the call spans whose own time is glue, not a stage: the
// layer stages inside them are their children.
var wrappers = map[string]bool{
	"server.Session.Feed":      true,
	"server.Server.Attach":     true,
	"server.Server.InsertRows": true,
}

// opBreakdown is one operation's self times by stage, and the part of its
// root span no stage covers.
type opBreakdown struct {
	root         string
	total        time.Duration
	self         map[string]time.Duration
	unattributed time.Duration
	overlap      bool // some span's children outlast it
}

// breakdowns folds the spans into per-operation self times. A span's self
// time is its duration minus its children's; the root's and the wrappers'
// self times are unattributed. By construction the stage self times plus
// the unattributed time add up to the root span exactly.
func (t *tracer) breakdowns() []opBreakdown {
	childSum := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.dur()
		}
	}
	var out []opBreakdown
	for i, s := range t.spans {
		self := s.dur() - childSum[i]
		if s.Parent < 0 {
			out = append(out, opBreakdown{root: s.Name, total: s.dur(), self: map[string]time.Duration{}})
		}
		b := &out[len(out)-1]
		if self < -overlapSlack {
			b.overlap = true
		}
		if s.Parent < 0 || wrappers[s.Name] {
			b.unattributed += self
		} else {
			b.self[s.Name] += self
		}
	}
	return out
}

// write saves every span as gzipped JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
