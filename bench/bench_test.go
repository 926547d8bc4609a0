package main

import (
	"io"
	"math"
	"regexp"
	"testing"
	"time"
)

// TestWorkloadsEmitTheCatalogue runs every workload for 300 ms, untraced
// and traced, and holds what it emits against BENCHMARK.json. It asserts
// names, units, finiteness and the modeled clock's exactness — never a
// wall-clock inequality.
func TestWorkloadsEmitTheCatalogue(t *testing.T) {
	bf, err := loadBenchFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, w.Name, workloads[i].name)
		}
	}
	outDir := t.TempDir()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			r, err := newRun(w, 1, 300*time.Millisecond, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			r.outDir = outDir
			e2e, err := r.endToEnd()
			if err != nil {
				t.Fatal(err)
			}
			layers, err := r.perLayer()
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				kind  string
				res   *result
				specs []metricSpec
			}{{"end_to_end", e2e, bf.EndToEnd}, {"per_layer", layers, bf.PerLayer}} {
				if !c.res.Correct || c.res.Failed != 0 || c.res.Attempted < 1 {
					t.Errorf("%s: correct=%v, %d of %d operations failed", c.kind, c.res.Correct, c.res.Failed, c.res.Attempted)
				}
				listed := map[string]bool{}
				for _, spec := range c.specs {
					listed[spec.Name] = true
					m, ok := c.res.Metrics[spec.Name]
					switch {
					case !name.MatchString(spec.Name):
						t.Errorf("%s: %q is not a metric name", c.kind, spec.Name)
					case !ok:
						t.Errorf("%s: %s is in BENCHMARK.json but was not emitted", c.kind, spec.Name)
					case m.Unit == "" || m.Unit != spec.Unit:
						t.Errorf("%s: %s emitted in %q, BENCHMARK.json says %q", c.kind, spec.Name, m.Unit, spec.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s: %s = %v", c.kind, spec.Name, m.Value)
					}
				}
				for n := range c.res.Metrics {
					if !listed[n] {
						t.Errorf("%s: %s was emitted but is not in BENCHMARK.json", c.kind, n)
					}
				}
			}

			// The modeled clock: the stages sum to the batch total (perLayer
			// fails the run otherwise), both runs report the same total, and
			// a second replay of the same inputs gives the same numbers.
			same := func(what string, a, b float64) {
				if math.Abs(a-b) > 1e-9*math.Abs(a) {
					t.Errorf("%s: %v and %v", what, a, b)
				}
			}
			same("modeled_batch_us, untraced and traced run",
				e2e.Metrics["modeled_batch_us"].Value, layers.Metrics["core.modeled_batch_us"].Value)
			again, err := w.replay(r.in)
			if err != nil {
				t.Fatal(err)
			}
			same("modeled_batch_us, two replays", e2e.Metrics["modeled_batch_us"].Value, again.batchUs())
			same("modeled_speedup_vs_cpu, two replays", e2e.Metrics["modeled_speedup_vs_cpu"].Value, again.speedup())

			// The two ends of the paper's Fig. 11 the workloads were chosen
			// for: high pooling beats the modeled CPU baseline, two lookups
			// per table do not.
			switch speedup := again.speedup(); {
			case w.name == "offline_embed" && speedup <= 1, w.name == "serve_dense" && speedup >= 1:
				t.Errorf("modeled_speedup_vs_cpu = %v", speedup)
			}
		})
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 29, 7, 22, 11, 16})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
