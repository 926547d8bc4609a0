package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// metricSpec is one metric's entry in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchFile is BENCHMARK.json: the catalogue the runs are checked
// against.
type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadBenchFile finds BENCHMARK.json from the repository root or from
// the benchmark's own directory.
func loadBenchFile() (*benchFile, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		bf := &benchFile{}
		if err := json.Unmarshal(raw, bf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return bf, nil
	}
	return nil, firstErr
}

// child runs one workload in its own process — so peak_rss_mb is the
// workload's own and no run inherits another's heap — and returns its
// text output and parsed result.
func child(workload string, seed uint64, seconds float64, traced int) (string, *result, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", nil, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(traced))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return string(out), nil, fmt.Errorf("%s (seed %d, trace %d): %w", workload, seed, traced, err)
	}
	text := strings.TrimRight(string(out), "\n")
	cut := strings.LastIndexByte(text, '\n')
	res := &result{}
	dec := json.NewDecoder(bytes.NewReader([]byte(text[cut+1:])))
	dec.DisallowUnknownFields()
	if err := dec.Decode(res); err != nil {
		return text, nil, fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	if !res.Correct || res.Failed != 0 {
		return text, res, fmt.Errorf("%s: %d of %d operations failed", workload, res.Failed, res.Attempted)
	}
	return text[:max(cut, 0)], res, nil
}

// runSuite runs every workload untraced, then every workload traced,
// one child process after another.
func runSuite(seed uint64, seconds float64) error {
	for traced := 0; traced <= 1; traced++ {
		for _, w := range workloads {
			text, _, err := child(w.name, seed, seconds, traced)
			fmt.Println(text)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// runAgree is the noise protocol's acceptance test: the untraced suite
// as two interleaved sets of n runs (seeds seed..seed+n-1 in both), and
// per workload and metric the two medians, how much worse the second is
// than the first, each set's quartile spread, and the bound. A second
// median worse than the first by more than the bound, a spread above the
// bound (setup_s excepted, as in the acceptance protocol) or a modeled
// number that differs between the sets is a breach.
func runAgree(n int, seed uint64, seconds float64) error {
	bf, err := loadBenchFile()
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			for j := 0; j < 2; j++ {
				set := (i + j) % 2 // alternate which set runs first
				_, res, err := child(w.name, seed+uint64(i), seconds, 0)
				if err != nil {
					return err
				}
				for name, m := range res.Metrics {
					k := key{w.name, name}
					sets[set][k] = append(sets[set][k], m.Value)
				}
				fmt.Fprintf(os.Stderr, "agree: seed %d %s set %d done\n", seed+uint64(i), w.name, set+1)
			}
		}
	}
	breaches := 0
	fmt.Printf("| workload | metric | median 1 | median 2 | 2 worse by | spread 1 | spread 2 | bound | |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range workloads {
		for _, spec := range bf.EndToEnd {
			k := key{w.name, spec.Name}
			a, b := sets[0][k], sets[1][k]
			if len(a) != n || len(b) != n {
				return fmt.Errorf("%s: %s reported %d and %d times in %d runs", w.name, spec.Name, len(a), len(b), n)
			}
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if spec.Better == "higher" {
				worse = (ma - mb) / ma
			}
			sa, sb := relIQR(a), relIQR(b)
			verdict := "ok"
			switch {
			case worse > spec.Bound:
				verdict = "BREACH: medians disagree"
			case spec.Name != "setup_s" && max(sa, sb) > spec.Bound:
				verdict = "BREACH: spread above bound"
			case strings.HasPrefix(spec.Name, "modeled_") && math.Abs(mb-ma) > 1e-9*math.Abs(ma):
				verdict = "BREACH: modeled number not reproducible"
			case spec.Name != "setup_s" && max(sa, sb) > spec.Bound/3:
				verdict = "ok (spread above a third of the bound)"
			}
			if strings.HasPrefix(verdict, "BREACH") {
				breaches++
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %+.4f | %.4f | %.4f | %.3g | %s |\n",
				w.name, spec.Name, ma, mb, worse, sa, sb, spec.Bound, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d breaches in %d x 2 runs per workload", breaches, n)
	}
	return nil
}
