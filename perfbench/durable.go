package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/wal"
)

// recoverPhase seals the durable server's log, recovers repeatedly from
// fresh copies of it, and checks each recovered server against the model:
// every ingested row present, relations equal to those before shutdown.
// The last recovered server then resumes every journaled session, each of
// which must show what it showed before shutdown. It returns the recovery
// times in ms.
func (r *runner) recoverPhase() []float64 {
	before, err := r.baseFingerprints(r.srv)
	r.note("check", err)
	err = r.srv.Shutdown()
	r.note("shutdown", err)
	if err != nil {
		return nil
	}
	src := filepath.Join(r.dir, "wal")
	var times []float64
	var last *server.Server
	for i := 0; i < r.w.recoveries; i++ {
		dst := filepath.Join(r.dir, fmt.Sprintf("recover-%d", i))
		if err := copyDir(src, dst); err != nil {
			r.note("recover", err)
			continue
		}
		start := time.Now()
		srv, rep, err := server.NewDurable(r.cfg, r.program, wal.Options{Dir: dst, Policy: wal.SyncInterval})
		end := time.Now()
		r.note("recover", err)
		if err != nil {
			continue
		}
		times = append(times, float64(end.Sub(start).Nanoseconds())/1e6)
		if r.layers != nil {
			root := r.layers.tr.begin("op.recover", start, end)
			r.layers.tr.child("server.NewDurable", root, start, end)
		}
		err = r.checkRecovered(srv, rep, before)
		r.note("check", err)
		if last != nil {
			r.closeRecovered(last)
		}
		last = srv
	}
	if last != nil {
		r.resumeAll(last)
		r.closeRecovered(last)
	}
	if r.layers != nil {
		r.traceRecoveryHalves(src)
	}
	return times
}

// baseFingerprints summarizes the shared relations for comparison across
// a restart; Sales must also match the model's own rows.
func (r *runner) baseFingerprints(srv *server.Server) (map[string]string, error) {
	out := map[string]string{}
	for _, name := range []string{"Sales", "MonthAxis", "RegionAxis"} {
		rel, err := srv.Base().Relation(name)
		if err != nil {
			return nil, err
		}
		out[name] = fmt.Sprintf("%d rows %v", len(rel.Rows), relationChart(rel))
		if name == "Sales" {
			if got, want := relationFingerprint(rel), r.model.salesFingerprint(); got != want {
				return nil, fmt.Errorf("Sales per month %s, model %s", got, want)
			}
		}
	}
	return out, nil
}

func (r *runner) checkRecovered(srv *server.Server, rep wal.Report, before map[string]string) error {
	if !rep.Clean() {
		return fmt.Errorf("recovery of a sealed log repaired it: %+v", rep)
	}
	after, err := r.baseFingerprints(srv)
	if err != nil {
		return err
	}
	for name, fp := range before {
		if after[name] != fp {
			return fmt.Errorf("%s differs after recovery", name)
		}
	}
	return nil
}

// resumeAll resumes every brushing session on a recovered server by its
// token and checks it shows its state from before shutdown.
func (r *runner) resumeAll(srv *server.Server) {
	w := wire{srv: srv}
	prev := r.wire
	r.wire = w
	defer func() { r.wire = prev }()
	for _, sl := range r.brushers {
		next, err := r.line("resume-recovered", nil, resumeLine(sl.sess.Token()))
		if err != nil {
			continue
		}
		sl.sess = next
		r.check(sl)
	}
}

func (r *runner) closeRecovered(srv *server.Server) {
	err := srv.Shutdown()
	r.note("shutdown", err)
}

// traceRecoveryHalves times the two halves of a recovery separately on
// another copy of the log: opening and scanning it, then replaying it into
// the shared engine.
func (r *runner) traceRecoveryHalves(src string) {
	dst := filepath.Join(r.dir, "recover-traced")
	if err := copyDir(src, dst); err != nil {
		r.note("recover-split", err)
		return
	}
	split, err := core.SplitProgram(r.program)
	if err != nil {
		r.note("recover-split", err)
		return
	}
	t := r.layers.tr
	start := time.Now()
	l, rec, err := wal.Open(wal.Options{Dir: dst, Policy: wal.SyncInterval})
	opened := time.Now()
	if err != nil {
		r.note("recover-split", err)
		return
	}
	defer l.Close()
	eng, err := core.RecoverEngineParsed(r.cfg.Engine, split.Shared, rec)
	end := time.Now()
	r.note("recover-split", err)
	if err != nil {
		return
	}
	eng.Close()
	root := t.begin("op.recover-split", start, end)
	t.child("wal.Open", root, start, opened)
	t.child("core.RecoverEngineParsed", root, opened, end)
	r.layers.recovered = recoveryLayers{
		openMs:   float64(opened.Sub(start).Nanoseconds()) / 1e6,
		replayMs: float64(end.Sub(opened).Nanoseconds()) / 1e6,
		records:  len(rec.Records),
	}
}

// The rotation probe: a durable server whose whole-state checkpoint is
// larger than one log segment. Its inputs are fixed, not seeded.
const (
	probeRows  = 300_000
	probeBatch = 1000
	probeLimit = 1 << 20 // bytes one probeBatch-row ingest may append
)

// rotationProbe ingests one small batch into a server holding probeRows
// rows and checks how much the log grew. Rotation writes a whole-state
// checkpoint into the new segment; once that checkpoint alone fills a
// segment, every later append rotates again and rewrites it.
func (r *runner) rotationProbe() {
	err := func() error {
		dir := filepath.Join(r.dir, "probe")
		defer os.RemoveAll(dir)
		srv, _, err := server.NewDurable(r.cfg, cubeProgram(barScale(probeRows)), wal.Options{Dir: dir, Policy: wal.SyncInterval})
		if err != nil {
			return err
		}
		defer srv.Shutdown()
		g := newRowGen(1)
		_, base := g.batch(probeRows)
		if err := srv.InsertRows("Sales", base); err != nil {
			return err
		}
		b0 := srv.Log().Stats().BytesAppended
		_, batch := g.batch(probeBatch)
		if err := srv.InsertRows("Sales", batch); err != nil {
			return err
		}
		if grown := srv.Log().Stats().BytesAppended - b0; grown > probeLimit {
			return fmt.Errorf("one %d-row ingest at %d rows appended %.1f MB to the log (limit %.1f MB): each append past a full segment rewrites the whole-state checkpoint",
				probeBatch, probeRows, float64(grown)/1e6, float64(probeLimit)/1e6)
		}
		return nil
	}()
	r.note("rotation-probe", err)
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
