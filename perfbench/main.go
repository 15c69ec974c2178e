// Command perfbench drives the session server in process and prints, for
// one workload and seed, every end-to-end metric with its unit, checked
// against an independent model of what the charts should show. With
// --trace 1 it prints the per-layer breakdown instead.
//
//	bash perfbench/run.sh --workload cube-brush --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh steady --workload cube-brush --runs 10
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "steady:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload name: cube-brush, fused-brush or durable-resume")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 20, "run length; sets the fixed round count")
	traced := flag.Int("trace", 0, "1: trace odd rounds and print the per-layer metrics")
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be at least 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, _, err := run(w, *seed, *seconds, *traced == 1, ".bench_build")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setups is how many times a run builds its set-up; setup_s is the median.
// Five, because durable-resume's set-up is a 0.14 s burst of log writes
// whose median of three spread 26% over ten seeds.
const setups = 5

// run plays one workload and returns its result line and the runner that
// played it. Logs and span files go under out.
func run(w *workload, seed int64, seconds int, tracing bool, out string) (*result, *runner, error) {
	printHeader(w, seed, seconds, tracing)
	dir, err := filepath.Abs(filepath.Join(out, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	r := newRunner(w, seed, seconds, tracing, dir)
	r.prepare()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	r.cur = &samples{} // set-up events are not samples
	var setupS []float64
	for i := 0; i < setups; i++ {
		if err := r.teardown(); err != nil {
			return nil, nil, err
		}
		runtime.GC()
		start := time.Now()
		if err := r.setup(rng); err != nil {
			return nil, nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	for _, sl := range r.brushers {
		r.check(sl)
	}
	r.planAll(rng)

	untraced, traced := &samples{}, &samples{}
	if tracing {
		r.layers = newLayerAcc()
		r.startLayers()
	}
	var log0 int64
	if lg := r.srv.Log(); lg != nil {
		log0 = lg.Stats().BytesAppended
	}
	steal0 := readCPU()
	r.measure(untraced, traced)
	steal := readCPU().stealSince(steal0)
	var logBytes int64
	if lg := r.srv.Log(); lg != nil {
		logBytes = lg.Stats().BytesAppended - log0
	}
	// The live heap right after the timed phase, over the history the
	// measured traffic left. Two collections: the first moves sync.Pool
	// contents to their victim caches, the second frees them, so the reading
	// is the live heap alone.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / 1e6

	var layers map[string]metric
	if tracing {
		layers = r.layerMetrics(untraced, traced, logBytes)
	}
	for _, sl := range r.brushers {
		r.retire(sl)
	}
	var recovery []float64
	if w.durable {
		recovery = r.recoverPhase()
		r.rotationProbe()
	}
	guardErr := r.guard(logBytes, len(recovery))
	if layers != nil {
		if len(recovery) > 0 {
			layers["server.recovery_p50_ms"] = metric{median(sorted(recovery)), "ms"}
		}
		layers["wal.open_ms"] = metric{r.layers.recovered.openMs, "ms"}
		layers["core.replay_ms"] = metric{r.layers.recovered.replayMs, "ms"}
		layers["wal.records_recovered"] = metric{float64(r.layers.recovered.records), "count"}
	}

	// A traced run splits the rounds in two, and its end-to-end figures
	// only print; a metric with too few samples in one half is left out.
	e2e, e2eErr := endToEnd(w, untraced, setupS, heapMB)
	if e2eErr != nil && !tracing {
		return nil, nil, e2eErr
	}
	fmt.Printf("ops: %s\n", r.opSummary())
	fmt.Printf("timed phase: %.2f s of system time over %d rounds, %d interaction ops; host steal %.1f%%\n",
		(untraced.wall + traced.wall).Seconds(), len(r.plan), len(untraced.event)+len(traced.event), 100*steal)
	if ev := sorted(untraced.event); len(ev) > 0 {
		fmt.Printf("event tails (us): p90 %.1f, p95 %.1f, p97 %.1f, p98 %.1f, p99 %.1f, p99.5 %.1f, p99.9 %.1f\n", quantile(ev, .90),
			quantile(ev, .95), quantile(ev, .97), quantile(ev, .98), quantile(ev, .99), quantile(ev, .995), quantile(ev, .999))
	}
	fmt.Printf("end-to-end%s: %s\n", map[bool]string{true: " (untraced rounds)", false: ""}[tracing], formatMetrics(e2e, e2eErr))
	if w.durable {
		fmt.Printf("durability: recovery_p50_ms %.3f over %d recoveries, log_mb %.3f\n", median(sorted(recovery)), len(recovery), float64(logBytes)/1e6)
	}
	if tracing {
		te, err := endToEnd(w, traced, setupS, heapMB)
		fmt.Printf("end-to-end (traced rounds): %s\n", formatMetrics(te, err))
		path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl.gz", w.name, seed))
		if err := r.layers.tr.write(path); err != nil {
			return nil, nil, err
		}
		fmt.Printf("spans: %d written to %s\n", len(r.layers.tr.spans), path)
		if n := r.layers.overlaps(); n > 0 {
			r.errs = append(r.errs, fmt.Sprintf("%d traced operations have stages outlasting their span", n))
			guardErr = fmt.Errorf("trace: %d operations do not add up", n)
		}
	}
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "error:", e)
	}
	if guardErr != nil {
		fmt.Fprintln(os.Stderr, "guard:", guardErr)
	}
	attempted, failed := r.totals()
	unexpected := r.unexpectedFailures()
	if unexpected > 0 {
		fmt.Fprintf(os.Stderr, "failed: %d operations besides the %s\n", unexpected, knownFault)
	}
	res := &result{Correct: guardErr == nil && unexpected == 0, Attempted: attempted, Failed: failed, Metrics: e2e}
	if tracing {
		res.Metrics = layers
	}
	return res, r, nil
}

// throughputBlocks is how many blocks of consecutive rounds events_per_s
// takes the median over, so a disturbance of the host shorter than half
// the run does not move it.
const throughputBlocks = 8

// endToEnd computes the end-to-end metrics of one set of rounds. A metric
// with too few samples is left out and its error returned with the rest.
func endToEnd(w *workload, s *samples, setupS []float64, heapMB float64) (map[string]metric, error) {
	out := map[string]metric{
		"setup_s": {median(sorted(setupS)), "s"},
		"heap_mb": {heapMB, "MB"},
	}
	var errs []error
	put := func(name, unit string, v float64, err error) {
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
			return
		}
		out[name] = metric{v, unit}
	}
	p50, err := sampleMedian(s.event)
	put("event_p50_us", "us", p50, err)
	tl, err := blockTail(s, w.tailQ)
	put("event_tail_us", "us", tl, err)
	var tput []float64
	for _, b := range s.blocks(throughputBlocks) {
		tput = append(tput, float64(len(b.event))/b.wall.Seconds())
	}
	out["events_per_s"] = metric{median(sorted(tput)), "1/s"}
	for _, m := range []struct {
		name string
		xs   []float64
	}{{"attach_p50_ms", s.attach}, {"resume_p50_ms", s.resume}, {"ingest_p50_ms", s.ingest}} {
		v, err := sampleMedian(m.xs)
		put(m.name, "ms", v, err)
	}
	return out, errors.Join(errs...)
}

// e2eNames are the end-to-end metrics, in the order they print.
var e2eNames = []string{"setup_s", "event_p50_us", "event_tail_us", "events_per_s", "attach_p50_ms", "resume_p50_ms", "ingest_p50_ms", "heap_mb"}

// formatMetrics prints the end-to-end metrics in order, and why any are
// missing.
func formatMetrics(ms map[string]metric, err error) string {
	var parts []string
	for _, name := range e2eNames {
		if m, ok := ms[name]; ok {
			parts = append(parts, fmt.Sprintf("%s %.4g %s", name, m.Value, m.Unit))
		}
	}
	if err != nil {
		parts = append(parts, "not reported: "+strings.ReplaceAll(err.Error(), "\n", "; "))
	}
	return strings.Join(parts, ", ")
}

// guard fails the run when the workload stops stressing the paths it is
// named for.
func (r *runner) guard(logBytes int64, recovered int) error {
	c := r.counts
	switch {
	case r.w.fused:
		if c.cubeHits != 0 || c.fusedApplies == 0 || c.deltaApplies-c.fusedApplies == 0 || c.topkEmits == 0 {
			return fmt.Errorf("fused-brush left its paths: cube hits %d, fused applies %d, other applies %d, top-k emits %d",
				c.cubeHits, c.fusedApplies, c.deltaApplies-c.fusedApplies, c.topkEmits)
		}
	default:
		if c.cubeHits == 0 || c.fusedApplies != 0 || c.rowFallbacks != 0 || c.batchRows != 0 {
			return fmt.Errorf("%s left the cube path: cube hits %d, fused applies %d, row fallbacks %d, fused rows %d",
				r.w.name, c.cubeHits, c.fusedApplies, c.rowFallbacks, c.batchRows)
		}
	}
	if c := r.ops["log-rotation"]; c != nil && c.failed > 0 {
		return fmt.Errorf("the run stopped early: the log kept rotating")
	}
	if r.w.durable && logBytes <= 0 {
		return fmt.Errorf("durable-resume appended nothing to the log")
	}
	if r.w.durable && recovered != r.w.recoveries {
		return fmt.Errorf("%d of %d recoveries completed", recovered, r.w.recoveries)
	}
	return nil
}

// printHeader records the host, toolchain and inputs of the run.
func printHeader(w *workload, seed int64, seconds int, tracing bool) {
	commit := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v rounds=%d\n", w.name, seed, seconds, tracing, w.rounds(seconds))
	fmt.Printf("host: %s %s/%s nproc=%d GOMAXPROCS=%d cpu=%q commit=%s\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), commit)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks is the host's cumulative CPU time split, from /proc/stat.
type cpuTicks struct{ total, steal uint64 }

func readCPU() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var t cpuTicks
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			t.total += n
		}
		if i == 7 {
			t.steal = n
		}
	}
	return t
}

// stealSince is the share of CPU time the hypervisor took from this host
// since an earlier reading: time the benchmark waited that no program
// change can remove.
func (t cpuTicks) stealSince(t0 cpuTicks) float64 {
	if t.total <= t0.total {
		return 0
	}
	return float64(t.steal-t0.steal) / float64(t.total-t0.total)
}
