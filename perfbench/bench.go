package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"

	"emsim/internal/core"
	"emsim/internal/obs"
)

// config is one invocation's settings.
type config struct {
	workload  string
	seed      int64
	window    time.Duration // measured load time (split in half when traced)
	trace     bool
	artifacts string // directory for the traced run's Chrome trace
	size      sizes
}

// sizes holds every input size of the benchmark, so the smoke test can
// run the same code paths on tiny inputs.
type sizes struct {
	// An untraced run sets up at least setupReps times and for at least
	// setupMin; setup_s is the median.
	setupReps int
	setupMin  time.Duration
	train     core.TrainOptions // training campaign (Workers and Cache are set per run)

	cpaTraces, tvlaTraces, cpaStep int // one aes-campaign operation, per arm
	checkTraces                    int // AES traces re-simulated by the output check

	progMin, progMax int // serve-mixed program length range, instructions
	checkSignalEvery int // serve-mixed: bit-compare every n-th full signal

	heldOut, heldOutLen, compareRuns int // accuracy_ncc held-out programs
	simPrograms, simRepeats          int // train: held-out programs each model simulates, and passes over them

	corpus    int           // programs replayed per layer
	replayMin time.Duration // minimum timed span per replayed layer
	serveReps int           // loopback replays per (program, mode)
	ringSize  int           // span ring capacity of the traced run
}

// fullSize is what the command runs.
var fullSize = sizes{
	setupReps:   5,
	setupMin:    250 * time.Millisecond,
	cpaTraces:   256,
	tvlaTraces:  64,
	cpaStep:     64,
	checkTraces: 4,
	progMin:     100, progMax: 400,
	checkSignalEvery: 32,
	heldOut:          6, heldOutLen: 300, compareRuns: 30,
	simPrograms: 32, simRepeats: 6,
	corpus:    6,
	replayMin: 150 * time.Millisecond,
	serveReps: 3,
	ringSize:  1 << 20,
}

// window is what one timed load phase recorded.
type window struct {
	elapsed time.Duration
	ops     []opSample
}

// opSample is one completed operation: a campaign, a request or a
// trained model.
type opSample struct {
	end    time.Duration // completion time since the window began
	dur    time.Duration // latency, as the caller waited for the operation
	traces float64       // traces simulated (train: device measurements)
	cycles float64       // simulated cycles
	// simDur, when nonzero, is the host time the cycles took outside
	// dur (train: the fresh model simulating its held-out programs).
	simDur time.Duration
}

// workload is one named benchmark workload. setup may run several
// times; each run replaces the previous state.
type workload interface {
	setup(ctx context.Context) error
	run(ctx context.Context, d time.Duration) (*window, error)
	// verify runs the output checks over everything the windows did.
	verify(ctx context.Context) error
	// endToEnd sets the workload's own end-to-end metrics (train_s,
	// accuracy_ncc).
	endToEnd(ctx context.Context) error
	// layers replays every layer on the workload's inputs and sets the
	// per-layer metrics; untraced is the traced run's untraced half.
	layers(ctx context.Context, untraced *window) error
	close()
}

var workloads = map[string]func(*bench) workload{
	"aes-campaign": newAESWorkload,
	"serve-mixed":  newServeWorkload,
	"train":        newTrainWorkload,
}

// maxFailureMessages caps the check messages a run keeps; every
// failure still counts.
const maxFailureMessages = 20

// bench accumulates one run's metrics, check results and metadata.
type bench struct {
	cfg       config
	metrics   map[string]metric
	meta      map[string]any
	failures  []string
	attempted int
	failed    int
	lane      int // trace lane of the benchmark's own spans
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newBench(cfg config) *bench {
	b := &bench{cfg: cfg, metrics: map[string]metric{}, lane: obs.NextLane()}
	b.meta = runMetadata(cfg)
	return b
}

func (b *bench) set(name string, v float64, unit string) { b.metrics[name] = metric{v, unit} }

// check records an output check; a false ok fails the run and counts
// one failed operation. It returns ok.
func (b *bench) check(ok bool, format string, args ...any) bool {
	if ok {
		return true
	}
	if len(b.failures) < maxFailureMessages {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
	b.failed++
	return false
}

func (b *bench) result() result {
	attempted := b.attempted
	if attempted < 1 {
		attempted = 1
	}
	return result{Correct: b.failed == 0, Attempted: attempted, Failed: b.failed, Metrics: b.metrics}
}

// runBench runs one invocation: set-up, then either the untraced window
// (end-to-end metrics) or the untraced half, the traced half and the
// layer replay (per-layer metrics).
func runBench(ctx context.Context, cfg config, newW func(*bench) workload) (*bench, error) {
	b := newBench(cfg)
	w := newW(b)
	defer w.close()
	var setups []float64
	var total time.Duration
	for len(setups) == 0 || !cfg.trace && (len(setups) < cfg.size.setupReps || total < cfg.size.setupMin) {
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		d := time.Since(t0)
		total += d
		setups = append(setups, d.Seconds())
	}
	if !cfg.trace {
		// Return set-up garbage to the OS first, so the window's peak is
		// the workload's own footprint.
		debug.FreeOSMemory()
		mem, steal := startMemPeak(cfg.window), startSteal()
		win, err := w.run(ctx, cfg.window)
		peakMB := mem.stop()
		b.meta["host_steal_frac"] = steal.frac()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.workload, err)
		}
		setEndToEnd(b, win, cfg.workload == "serve-mixed")
		if err := w.endToEnd(ctx); err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.workload, err)
		}
		if err := w.verify(ctx); err != nil {
			return nil, fmt.Errorf("%s verify: %w", cfg.workload, err)
		}
		b.set("setup_s", median(setups), "s")
		b.set("peak_rss_mb", peakMB, "MB")
		b.meta["setup_samples"] = len(setups)
		return b, nil
	}
	return b, runTraced(ctx, b, w)
}

// runTraced is the -trace 1 path. The untraced half measures the
// operation rate with recording off; the traced half repeats the set-up
// and the load with recording on, then replays every layer.
func runTraced(ctx context.Context, b *bench, w workload) error {
	half := b.cfg.window / 2
	untraced, err := w.run(ctx, half)
	if err != nil {
		return fmt.Errorf("untraced: %w", err)
	}
	obs.Enable(b.cfg.size.ringSize)
	defer obs.Disable()
	obs.Begin(spanSetup, b.lane)
	err = w.setup(ctx)
	obs.End(spanSetup, b.lane)
	if err != nil {
		return fmt.Errorf("traced setup: %w", err)
	}
	traced, err := w.run(ctx, half)
	if err != nil {
		return fmt.Errorf("traced: %w", err)
	}
	if err := w.layers(ctx, untraced); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	obs.Disable()
	if err := w.verify(ctx); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	// Overhead compares median operation time, the statistic the
	// end-to-end metrics use.
	b.set("obs.trace_overhead_frac", medianDur(traced.ops)/medianDur(untraced.ops)-1, "frac")
	return recordSpans(b, obs.Snapshot())
}

// setEndToEnd derives the throughput and latency metrics every workload
// reports from one untraced window. Sequential workloads take medians
// over operations. The concurrent serving workload splits the window
// into ten equal time slices and computes every rate and latency
// percentile per slice. It reports the faster quartile of the slices:
// the upper quartile of the rates and the lower quartile of the
// latencies. Contention from other tenants of the host only ever slows
// a slice down, so the faster slices estimate the program's own speed,
// while a change to the program moves every slice.
func setEndToEnd(b *bench, w *window, concurrent bool) {
	b.meta["latency_samples"] = len(w.ops)
	if !concurrent {
		var lat, tps, cps, ops []float64
		for _, op := range w.ops {
			s := op.dur.Seconds()
			lat = append(lat, s*1e3)
			tps = append(tps, op.traces/s)
			ops = append(ops, 1/s)
			if op.simDur > 0 {
				cps = append(cps, op.cycles/op.simDur.Seconds())
			} else {
				cps = append(cps, op.cycles/s)
			}
		}
		b.set("latency_p50_ms", median(lat), "ms")
		b.set("latency_p99_ms", percentile(lat, 0.99), "ms")
		b.set("traces_per_s", median(tps), "1/s")
		b.set("sim_cycles_per_s", median(cps), "1/s")
		b.set("requests_per_s", median(ops), "1/s")
		return
	}
	const slices = 10
	slice := max(w.elapsed/slices, 1)
	var reqs, traces, cycles [slices]float64
	var lat [slices][]float64
	for _, op := range w.ops {
		i := min(int(op.end/slice), slices-1)
		reqs[i]++
		traces[i] += op.traces
		cycles[i] += op.cycles
		lat[i] = append(lat[i], op.dur.Seconds()*1e3)
	}
	perSlice := func(q float64, f func(i int) float64) float64 {
		r := make([]float64, slices)
		for i := range r {
			r[i] = f(i)
		}
		return percentile(r, q)
	}
	sec := slice.Seconds()
	b.set("requests_per_s", perSlice(0.75, func(i int) float64 { return reqs[i] / sec }), "1/s")
	b.set("traces_per_s", perSlice(0.75, func(i int) float64 { return traces[i] / sec }), "1/s")
	b.set("sim_cycles_per_s", perSlice(0.75, func(i int) float64 { return cycles[i] / sec }), "1/s")
	b.set("latency_p50_ms", perSlice(0.25, func(i int) float64 { return median(lat[i]) }), "ms")
	b.set("latency_p99_ms", perSlice(0.25, func(i int) float64 { return percentile(lat[i], 0.99) }), "ms")
}

// memPeak samples, every memSampleEvery, the memory the Go runtime has
// mapped and in use: everything it holds from the OS except free heap
// pages, whether released back or still retained. Retained free pages
// go back to the OS at the background scavenger's pace, which follows
// the CPU time the host gives the process, so counting them moved
// serve-mixed between 15 and 22 MB from run to run. It keeps the maximum of each of memSlices
// equal time slices of the window; the result is the median of those
// peaks, so one garbage-collection cycle that happens to overlap a
// burst of replies moves one slice and not the metric.
type memPeak struct {
	quit  chan struct{}
	done  chan struct{}
	peaks [memSlices]uint64
}

const (
	memSampleEvery = 5 * time.Millisecond
	memSlices      = 10
)

// startMemPeak starts sampling a window expected to last d.
func startMemPeak(d time.Duration) *memPeak {
	m := &memPeak{quit: make(chan struct{}), done: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
		{Name: "/memory/classes/heap/free:bytes"},
	}
	start := time.Now()
	sample := func() {
		metrics.Read(samples)
		i := min(int(time.Since(start)*memSlices/d), memSlices-1)
		used := samples[0].Value.Uint64() - samples[1].Value.Uint64() - samples[2].Value.Uint64()
		if used > m.peaks[i] {
			m.peaks[i] = used
		}
	}
	sample()
	go func() {
		defer close(m.done)
		t := time.NewTicker(memSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-m.quit:
				sample()
				return
			case <-t.C:
				sample()
			}
		}
	}()
	return m
}

// stop ends sampling and returns the median slice peak in MiB. A slice
// the sampler never reached (a window that ended early) counts the
// peak before it.
func (m *memPeak) stop() float64 {
	close(m.quit)
	<-m.done
	v := make([]float64, memSlices)
	for i, p := range m.peaks {
		if p == 0 && i > 0 {
			m.peaks[i] = m.peaks[i-1]
		}
		v[i] = float64(m.peaks[i]) / (1 << 20)
	}
	return median(v)
}

// median returns the middle value of v (mean of the middle two).
func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile returns the p-quantile of v by linear interpolation
// between closest ranks (p = 1 is the maximum); 0 for no samples.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func medianDur(ops []opSample) float64 {
	var d []float64
	for _, op := range ops {
		d = append(d, op.dur.Seconds())
	}
	return median(d)
}

// workers is the campaign fan-out the workloads use: every available
// CPU.
func workers() int { return runtime.GOMAXPROCS(0) }
