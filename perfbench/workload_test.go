package main

import (
	"strings"
	"testing"
	"time"
)

// Every workload runs to its end at smoke size: every check passes, the
// path guard holds, and nothing fails but the known fault.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, r := runSmoke(t, w.name, false)
			if !res.Correct {
				t.Fatalf("incorrect: %v", r.errs)
			}
			for op, c := range r.ops {
				if c.failed > 0 && op != knownFault {
					t.Errorf("%s: %d of %d failed: %v", op, c.failed, c.attempted, r.errs)
				}
			}
			for _, m := range e2eNames {
				if v, ok := res.Metrics[m]; !ok || v.Value <= 0 {
					t.Errorf("%s = %v, want a positive figure", m, v)
				}
			}
		})
	}
}

// A traced run prints every per-layer metric, and on every traced
// operation the stage self times plus the unattributed time add up to the
// operation's span.
func TestTracedRunAddsUp(t *testing.T) {
	for _, name := range []string{"fused-brush", "durable-resume"} {
		t.Run(name, func(t *testing.T) {
			res, r := runSmoke(t, name, true)
			if !res.Correct {
				t.Fatalf("incorrect: %v", r.errs)
			}
			for _, m := range layerNames {
				if _, ok := res.Metrics[m]; !ok {
					t.Errorf("per-layer metric %s missing", m)
				}
			}
			if len(res.Metrics) != len(layerNames) {
				t.Errorf("%d per-layer metrics, want %d", len(res.Metrics), len(layerNames))
			}
			bs := r.layers.tr.breakdowns()
			if len(bs) == 0 {
				t.Fatal("no traced operations")
			}
			roots := map[string]bool{}
			for _, b := range bs {
				roots[b.root] = true
				sum := b.unattributed
				for _, d := range b.self {
					sum += d
				}
				if sum != b.total || b.unattributed < -overlapSlack {
					t.Fatalf("%s: stages %v + unattributed %v != span %v", b.root, b.self, b.unattributed, b.total)
				}
			}
			for _, op := range []string{"op.event", "op.undo", "op.attach", "op.ingest", "op.resume", "op.evict", "op.detach"} {
				if !roots[op] {
					t.Errorf("no %s operation traced", op)
				}
			}
			if res.Metrics["protocol.codec_us"].Value <= 0 || res.Metrics["render.render_us"].Value <= 0 {
				t.Errorf("codec or render stage empty: %v", res.Metrics)
			}
		})
	}
}

func runSmoke(t *testing.T, name string, traced bool) (*result, *runner) {
	t.Helper()
	w := smoke(t, name)
	start := time.Now()
	res, r, err := run(w, 5, 1, traced, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: %s in %v", name, strings.TrimSpace(r.opSummary()), time.Since(start).Round(time.Millisecond))
	return res, r
}
