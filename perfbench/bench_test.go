package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"emsim/internal/core"
	"emsim/internal/defend"
	"emsim/internal/obs"
)

// tinySize runs every code path of the benchmark on small inputs.
var tinySize = sizes{
	setupReps: 1,
	train: core.TrainOptions{
		Runs: 4, InstancesPerCluster: 6, MaxActivityBits: 12,
		MixedPrograms: 1, MixedLength: 120,
	},
	cpaTraces: 12, tvlaTraces: 8, cpaStep: 4,
	checkTraces: 1,
	progMin:     30, progMax: 60,
	checkSignalEvery: 1,
	heldOut:          1, heldOutLen: 60, compareRuns: 3,
	simPrograms: 1, simRepeats: 1,
	corpus:    2,
	replayMin: time.Millisecond,
	serveReps: 1,
	ringSize:  1 << 18,
}

// declared is BENCHMARK.json's metric list.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func tinyRun(t *testing.T, workload string, trace bool) *bench {
	t.Helper()
	cfg := config{
		workload:  workload,
		seed:      7,
		window:    300 * time.Millisecond,
		trace:     trace,
		artifacts: t.TempDir(),
		size:      tinySize,
	}
	b, err := runBench(context.Background(), cfg, workloads[workload])
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	return b
}

// TestEmitsDeclaredMetrics runs every workload in both modes at tiny
// sizes: each run passes its output checks and emits exactly the
// metrics BENCHMARK.json declares for its mode, with their units.
func TestEmitsDeclaredMetrics(t *testing.T) {
	d := loadDeclared(t)
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			b := tinyRun(t, name, trace)
			r := b.result()
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d: %v", name, trace, r.Correct, r.Failed, r.Attempted, b.failures)
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not emitted", name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(r.Metrics) != len(want) {
				var names []string
				for k := range r.Metrics {
					names = append(names, k)
				}
				sort.Strings(names)
				t.Errorf("%s trace=%v: emitted %d metrics, BENCHMARK.json declares %d: %v", name, trace, len(r.Metrics), len(want), names)
			}
		}
	}
}

// TestCorruptedOutputFails corrupts one output of each kind the checks
// cover and expects the run to fail.
func TestCorruptedOutputFails(t *testing.T) {
	ctx := context.Background()
	t.Run("served signal sample", func(t *testing.T) {
		b := newBench(config{workload: "serve-mixed", seed: 3, size: tinySize})
		w := newServeWorkload(b).(*serveWorkload)
		defer w.close()
		if err := w.setup(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := w.run(ctx, 50*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		// Replace one kept digest by that of the right signal with one
		// sample's lowest bit flipped.
		flipped := false
		for index := range w.digests {
			words, err := w.program(int(index))
			if err != nil {
				t.Fatal(err)
			}
			_, sig, err := w.ref.model().SimulateProgram(modelCPU(w.ref.dev), words)
			if err != nil {
				t.Fatal(err)
			}
			if w.digests[index] != signalDigest(sig) {
				t.Fatal("the kept digest does not match the right signal")
			}
			k := len(sig) / 2
			sig[k] = math.Float64frombits(math.Float64bits(sig[k]) ^ 1)
			w.digests[index] = signalDigest(sig)
			flipped = true
			break
		}
		if !flipped {
			t.Fatal("no request kept a signal digest for the bit-exact check")
		}
		if err := w.verify(ctx); err != nil {
			t.Fatal(err)
		}
		if b.result().Correct {
			t.Fatal("a flipped signal sample passed the check")
		}
	})
	for name, corrupt := range map[string]func(*served){
		"served cycle count": func(s *served) { s.cycles++ },
		"served statistics":  func(s *served) { s.stats ^= 1 },
	} {
		t.Run(name, func(t *testing.T) {
			b := newBench(config{workload: "serve-mixed", seed: 3, size: tinySize})
			w := newServeWorkload(b).(*serveWorkload)
			defer w.close()
			if err := w.setup(ctx); err != nil {
				t.Fatal(err)
			}
			if _, err := w.run(ctx, 20*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			corrupt(&w.completed[0])
			if err := w.verify(ctx); err != nil {
				t.Fatal(err)
			}
			if b.result().Correct {
				t.Fatalf("a corrupted %s passed the check", name)
			}
		})
	}
	t.Run("security verdict", func(t *testing.T) {
		b := newBench(config{workload: "aes-campaign", seed: 3, size: tinySize})
		w := newAESWorkload(b).(*aesWorkload)
		r := &defend.SecurityReport{}
		r.Baseline.MaxAbsT, r.Defended.MaxAbsT = 9, 12 // the defense made leakage worse
		w.checkReport(1, r)
		if b.result().Correct {
			t.Fatal("a defense that raised |t|max passed the check")
		}
	})
	t.Run("campaign report", func(t *testing.T) {
		b := newBench(config{workload: "aes-campaign", seed: 3, size: tinySize})
		w := newAESWorkload(b).(*aesWorkload)
		if err := w.setup(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := w.run(ctx, time.Nanosecond); err != nil {
			t.Fatal(err)
		}
		if !b.result().Correct {
			t.Fatalf("campaign checks failed: %v", b.failures)
		}
		// The kept report stands for campaign 0's output: one changed
		// byte must fail the re-run comparison.
		w.report0[len(w.report0)/2] ^= 1
		if err := w.verify(ctx); err != nil {
			t.Fatal(err)
		}
		if b.result().Correct {
			t.Fatal("a corrupted campaign report passed the check")
		}
	})
	t.Run("model serialization", func(t *testing.T) {
		b := newBench(config{workload: "train", seed: 3, size: tinySize})
		w := newTrainWorkload(b).(*trainWorkload)
		if err := w.setup(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := w.run(ctx, time.Nanosecond); err != nil {
			t.Fatal(err)
		}
		twin := *w.runs[0]
		m := *twin.model
		m.Background += 1e-12
		twin.model = &m
		w.runs = append(w.runs, &twin)
		if err := w.verify(ctx); err != nil {
			t.Fatal(err)
		}
		if b.result().Correct {
			t.Fatal("two different models passed the byte-identity check")
		}
	})
}

func TestSelfTimes(t *testing.T) {
	// One lane: outer [0,100] holds inner [10,40]; another lane's span
	// overlaps without being subtracted.
	events := []struct {
		name string
		lane int
		end  bool
		ns   int64
	}{
		{"outer", 1, false, 0}, {"inner", 1, false, 10}, {"other", 2, false, 15},
		{"inner", 1, true, 40}, {"other", 2, true, 90}, {"outer", 1, true, 100},
	}
	var evs []obs.Event
	for _, e := range events {
		evs = append(evs, obs.Event{Name: e.name, Lane: e.lane, End: e.end, Nanos: e.ns})
	}
	stats, dropped := selfTimes(evs)
	if dropped != 0 {
		t.Fatalf("dropped %d", dropped)
	}
	for name, want := range map[string]int64{"outer": 70, "inner": 30, "other": 75} {
		if got := stats[name].self; got != want {
			t.Errorf("%s self = %d, want %d", name, got, want)
		}
	}
}

func TestPercentileAndHistogram(t *testing.T) {
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := percentile([]float64{1, 2, 3, 4, 5}, 1); got != 5 {
		t.Errorf("p100 = %g, want 5", got)
	}
	// 10 samples: 4 at or below 1 ms, 10 at or below 2 ms.
	bounds := []float64{0.001, 0.002, math.Inf(1)}
	if got := histogramQuantile(bounds, []float64{4, 10, 10}, 0.5); got != 0.001+0.001*(5-4)/6.0 {
		t.Errorf("histogram p50 = %g", got)
	}
}
