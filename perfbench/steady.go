package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness report reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steady runs one workload k times on consecutive seeds, alternating with a
// second checkout when one is given, and reports each end-to-end metric's
// median, quartiles and spread against its bound; with a second checkout
// also the shift of its median. It is how the bounds were set, and how a
// later change can be held to them.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	runs := fs.Int("runs", 10, "runs per checkout")
	seed0 := fs.Int64("seed0", 1, "seed of the first run; run i uses seed0+i")
	seconds := fs.Int("seconds", 0, "run length (default: BENCHMARK.json run_seconds)")
	other := fs.String("other", "", "root of a second checkout to alternate with")
	if err := fs.Parse(args); err != nil {
		return err
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	sides := []string{"."}
	if *other != "" {
		sides = append(sides, *other)
	}
	vals := make([]map[string][]float64, len(sides))
	shares := make([]map[string]bool, len(sides))
	for s := range sides {
		vals[s], shares[s] = map[string][]float64{}, map[string]bool{}
	}
	for i := 0; i < *runs; i++ {
		seed := *seed0 + int64(i)
		for k := range sides {
			s := (k + i) % len(sides) // alternate which checkout goes first
			res, err := runOnce(sides[s], *name, seed, *seconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", sides[s], seed, err)
			}
			for m, v := range res.Metrics {
				vals[s][m] = append(vals[s][m], v.Value)
			}
			shares[s][fmt.Sprintf("%d/%d", res.Failed, res.Attempted)] = true
			fmt.Fprintf(os.Stderr, "%s seed %d: correct=%v failed=%d/%d %s\n", sides[s], seed, res.Correct, res.Failed, res.Attempted, formatMetrics(res.Metrics, nil))
		}
	}
	fmt.Printf("%s, %d runs per checkout, %d s each\n", *name, *runs, *seconds)
	fmt.Printf("%-15s %12s %12s %12s %8s %7s  %s\n", "metric", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, m := range spec.EndToEnd {
		xs := vals[0][m.Name]
		if len(xs) == 0 {
			continue
		}
		med := median(sorted(xs))
		q1, q3 := quartiles(xs)
		spread := (q3 - q1) / med
		verdict := "steady"
		switch {
		case m.Name == "setup_s":
			verdict = "not bounded by spread"
		case spread > m.Bound:
			verdict = "TOO WIDE"
		case spread > m.Bound/3:
			verdict = "within bound, above a third of it"
		}
		line := fmt.Sprintf("%-15s %12.5g %12.5g %12.5g %7.2f%% %6.0f%%  %s", m.Name, med, q1, q3, 100*spread, 100*m.Bound, verdict)
		if len(sides) > 1 && len(vals[1][m.Name]) > 0 {
			med2 := median(sorted(vals[1][m.Name]))
			worse := (med2 - med) / med
			if m.Better == "higher" {
				worse = -worse
			}
			line += fmt.Sprintf("; other median %.5g, %+.2f%% worse", med2, 100*worse)
			if worse > m.Bound {
				line += " BEYOND BOUND"
			}
		}
		fmt.Println(line)
	}
	for s, side := range sides {
		fmt.Printf("failed/attempted on %s: %s\n", side, strings.Join(keys(shares[s]), ", "))
	}
	return nil
}

// runOnce runs the benchmark once in the checkout rooted at dir and parses
// its last line.
func runOnce(dir, name string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command("bash", filepath.Join("perfbench", "run.sh"),
		"--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	for _, l := range lines {
		if strings.HasPrefix(l, "timed phase:") || strings.HasPrefix(l, "event tails") {
			fmt.Fprintln(os.Stderr, l)
		}
	}
	var res result
	if err := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1]))).Decode(&res); err != nil {
		return nil, fmt.Errorf("last line: %w", err)
	}
	return &res, nil
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
