package defend

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"emsim/internal/aes"
	"emsim/internal/core"
	"emsim/internal/cpu"
	"emsim/internal/leakage"
	"emsim/internal/obs"
	"emsim/internal/stats"
)

// Evaluation span identities: evaluate covers the whole two-arm
// campaign and arm one arm's TVLA+CPA sweep (both on the campaign's
// lane); trace covers one simulated trace on its worker's lane; analyze
// covers one accumulator snapshot (a sweep point) on the arm's
// analysis lane.
var (
	spanEvaluate = obs.RegisterSpan("defend.evaluate")
	spanArm      = obs.RegisterSpan("defend.arm")
	spanTrace    = obs.RegisterSpan("defend.trace")
	spanAnalyze  = obs.RegisterSpan("defend.analyze")
)

// Default secrets of the evaluation workload: the FIPS-197 example key
// and a distinctive fixed plaintext for the TVLA fixed group.
var (
	DefaultKey = [16]byte{
		0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
		0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
	}
	DefaultFixed = [16]byte{
		0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
		0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff,
	}
)

// Options configures an Evaluate campaign. The zero value of Key/Fixed
// selects the package defaults; zero numeric fields select the
// documented defaults.
type Options struct {
	Model   *core.Model // trained EM model (required)
	CPU     cpu.Config  // core configuration (zero value = defaults)
	Defense Spec        // countermeasure under evaluation (required)

	// Key is the AES key the attacks try to recover.
	//
	//emsim:secret
	Key [16]byte
	// Fixed is the TVLA fixed-group plaintext, secret alongside the key
	// (a known fixed input would let an attacker precompute the group).
	//
	//emsim:secret
	Fixed [16]byte

	Seed    int64 // campaign randomization seed
	Workers int   // simulation fan-out (<= 0: GOMAXPROCS)

	TVLATraces int // TVLA traces per group (default 64, min 4)
	CPATraces  int // CPA trace budget (default 512, min 12)
	CPAStep    int // key-rank curve grid step (default 64, min 4)
	CPAPoints  int // top-variance points-of-interest columns (0 = attack every column)

	// NoiseStd is the additive measurement-noise sigma per analog sample
	// (default 0.02). The attacks see per-cycle amplitudes, so it is
	// applied exactly through its extracted-amplitude equivalent
	// (core.ExtractedNoise) instead of to a rendered signal. It must be
	// positive and finite: a noiseless fixed TVLA group has zero variance
	// and an infinite t statistic, and NaN or infinite noise leaves no
	// statistic at all.
	NoiseStd float64

	// Progress, when non-nil, is called after each simulated trace of an
	// arm's campaign ("baseline" or the defense spec string). Simulation
	// workers invoke it concurrently, outside any evaluator lock: the
	// callback must be safe for concurrent use, and done counts from
	// different workers may arrive slightly out of order.
	Progress func(arm string, done, total int)
}

func (o Options) withDefaults() (Options, error) {
	if o.Model == nil {
		return o, fmt.Errorf("defend: Evaluate needs a trained model")
	}
	if o.Defense.Name == "" {
		return o, fmt.Errorf("defend: Evaluate needs a defense spec")
	}
	if _, err := o.Defense.New(); err != nil {
		return o, err
	}
	if o.CPU == (cpu.Config{}) {
		o.CPU = cpu.DefaultConfig()
	}
	if o.Key == ([16]byte{}) {
		o.Key = DefaultKey
	}
	if o.Fixed == ([16]byte{}) {
		o.Fixed = DefaultFixed
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.TVLATraces == 0 {
		o.TVLATraces = 64
	}
	if o.CPATraces == 0 {
		o.CPATraces = 512
	}
	if o.CPAStep == 0 {
		o.CPAStep = 64
	}
	if err := CheckBudget(o.TVLATraces, o.CPATraces, o.CPAStep); err != nil {
		return o, err
	}
	if o.CPAStep > o.CPATraces {
		o.CPAStep = o.CPATraces
	}
	if o.CPAPoints < 0 {
		return o, fmt.Errorf("defend: CPAPoints %d; need >= 0 (0 attacks every column)", o.CPAPoints)
	}
	if o.NoiseStd == 0 {
		o.NoiseStd = 0.02
	}
	if !(o.NoiseStd > 0) || math.IsInf(o.NoiseStd, 1) {
		return o, fmt.Errorf("defend: NoiseStd %g; need finite > 0 (a noiseless fixed group has infinite t)", o.NoiseStd)
	}
	return o, nil
}

// CheckBudget validates an attack-budget triple against the campaign
// minimums (TVLA needs 4 traces per group for a stable t statistic, CPA
// needs 12 traces and a grid step of 4). Zero values mean "use the
// default" and pass. Both Evaluate and the serving layer's request
// validation share this, so a bad budget fails fast at the API edge
// with the same diagnostic the library would give.
func CheckBudget(tvlaTraces, cpaTraces, cpaStep int) error {
	if tvlaTraces != 0 && tvlaTraces < 4 {
		return fmt.Errorf("defend: TVLATraces %d; need >= 4 per group", tvlaTraces)
	}
	if cpaTraces != 0 && cpaTraces < 12 {
		return fmt.Errorf("defend: CPATraces %d; need >= 12", cpaTraces)
	}
	if cpaStep != 0 && cpaStep < 4 {
		return fmt.Errorf("defend: CPAStep %d; need >= 4", cpaStep)
	}
	return nil
}

// TVLAPoint is one point of the min-traces-to-detection sweep.
type TVLAPoint struct {
	Traces  int     `json:"traces"` // traces per group
	MaxAbsT float64 `json:"max_abs_t"`
}

// RankPoint is one point of the CPA key-rank curve.
type RankPoint struct {
	Traces int     `json:"traces"`
	Rank   int     `json:"rank"` // 0 = true key byte ranked first
	Margin float64 `json:"margin"`
}

// ArmResult is one arm (baseline or defended) of an evaluation.
type ArmResult struct {
	Name         string      `json:"name"`
	MeanCycles   float64     `json:"mean_cycles"`
	MeanInjected float64     `json:"mean_injected"` // injected fetch slots per trace
	MaxAbsT      float64     `json:"max_abs_t"`     // at the full TVLA budget
	LeakyPoints  int         `json:"leaky_points"`  // cycles with |t| > 4.5 at full budget
	TVLASweep    []TVLAPoint `json:"tvla_sweep"`
	DetectTraces int         `json:"detect_traces"` // min traces/group with |t|max > 4.5 (0: never)
	CPARanks     []RankPoint `json:"cpa_ranks"`
	// DiscloseTraces is the smallest grid point from which the true key
	// byte ranks first at every subsequent grid point (0: not disclosed
	// within the budget).
	DiscloseTraces int `json:"disclose_traces"`

	// The attacker's-view trace geometry. Defended traces differ in
	// length (injected fetch slots), and the analyses align them by
	// truncating every trace to the shortest — silently, until these
	// fields surfaced it. *Samples is the surviving per-trace width of
	// each phase; *Truncated is how many trailing samples the longest
	// trace lost to that alignment (0 for fixed-length baseline runs).
	CPASamples    int `json:"cpa_samples"`
	CPATruncated  int `json:"cpa_truncated"`
	TVLASamples   int `json:"tvla_samples"`
	TVLATruncated int `json:"tvla_truncated"`
}

// SecurityReport compares defended execution against baseline.
type SecurityReport struct {
	Defense  string    `json:"defense"`
	Seed     int64     `json:"seed"`
	Baseline ArmResult `json:"baseline"`
	Defended ArmResult `json:"defended"`

	// LeakageReduction is 1 - defended/baseline |t|max (1 = leakage
	// eliminated, 0 = unchanged, negative = made worse).
	LeakageReduction float64 `json:"leakage_reduction"`
	// AttackCostMultiplier is defended/baseline CPA traces-to-disclosure.
	// When the defended arm never discloses within the budget it is
	// computed against budget+step and CostIsLowerBound is set. Zero when
	// the baseline attack itself failed.
	AttackCostMultiplier float64 `json:"attack_cost_multiplier"`
	CostIsLowerBound     bool    `json:"cost_is_lower_bound"`
	// CycleOverhead is the relative runtime cost: defended/baseline mean
	// cycles - 1.
	CycleOverhead float64 `json:"cycle_overhead"`
}

// Evaluate runs the full attack campaign — a TVLA fixed-vs-random
// detection sweep and a CPA key-recovery traces-to-disclosure curve —
// against both baseline and defended execution of the AES workload, and
// reports security gained versus cycles lost. The campaign fans trace
// simulation across opts.Workers workers; all randomization is keyed by
// (opts.Seed, trace identity), so the report is byte-identical at any
// worker count.
func Evaluate(ctx context.Context, opts Options) (*SecurityReport, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	lane := obs.NextLane()
	obs.Begin(spanEvaluate, lane)
	defer obs.End(spanEvaluate, lane)
	w, err := buildWorkload(opts)
	if err != nil {
		return nil, err
	}
	obs.Begin(spanArm, lane)
	base, err := evaluateArm(ctx, opts, w, "baseline", Spec{})
	obs.End(spanArm, lane)
	if err != nil {
		return nil, err
	}
	obs.Begin(spanArm, lane)
	def, err := evaluateArm(ctx, opts, w, opts.Defense.String(), opts.Defense)
	obs.End(spanArm, lane)
	if err != nil {
		return nil, err
	}
	r := &SecurityReport{
		Defense:  opts.Defense.String(),
		Seed:     opts.Seed,
		Baseline: *base,
		Defended: *def,
	}
	if base.MaxAbsT > 0 {
		r.LeakageReduction = 1 - def.MaxAbsT/base.MaxAbsT
	}
	switch {
	case base.DiscloseTraces == 0:
		r.AttackCostMultiplier = 0 // baseline attack failed; nothing to multiply
	case def.DiscloseTraces > 0:
		r.AttackCostMultiplier = float64(def.DiscloseTraces) / float64(base.DiscloseTraces)
	default:
		r.AttackCostMultiplier = float64(opts.CPATraces+opts.CPAStep) / float64(base.DiscloseTraces)
		r.CostIsLowerBound = true
	}
	if base.MeanCycles > 0 {
		r.CycleOverhead = def.MeanCycles/base.MeanCycles - 1
	}
	return r, nil
}

// workload is one campaign's AES programs. Both arms run the same
// programs, so Evaluate builds them once.
type workload struct {
	cpa   [][]uint32 // CPA traces, plaintexts from lanePlain
	cpaPt []byte     // first plaintext byte of each CPA trace
	tvla  [][]uint32 // TVLA traces: fixed at even, random at odd indices
}

// buildWorkload builds the CPA and TVLA programs of a campaign.
func buildWorkload(opts Options) (*workload, error) {
	w := &workload{
		cpa:   make([][]uint32, opts.CPATraces),
		cpaPt: make([]byte, opts.CPATraces),
		tvla:  make([][]uint32, 2*opts.TVLATraces),
	}
	for i := range w.cpa {
		pt := seededPlaintext(stream(opts.Seed, lanePlain, int64(i)))
		prog, err := aes.BuildProgram(opts.Key, pt)
		if err != nil {
			return nil, fmt.Errorf("defend: build CPA program %d: %w", i, err)
		}
		w.cpa[i] = prog.Words
		w.cpaPt[i] = pt[0]
	}
	fixedProg, err := aes.BuildProgram(opts.Key, opts.Fixed)
	if err != nil {
		return nil, fmt.Errorf("defend: build TVLA fixed program: %w", err)
	}
	for j := 0; j < opts.TVLATraces; j++ {
		w.tvla[2*j] = fixedProg.Words
		prog, err := aes.BuildProgram(opts.Key, seededPlaintext(stream(opts.Seed, laneTVLA, int64(j))))
		if err != nil {
			return nil, fmt.Errorf("defend: build TVLA program %d: %w", j, err)
		}
		w.tvla[2*j+1] = prog.Words
	}
	return w, nil
}

// seededPlaintext draws a plaintext from the generator seeded with seed.
func seededPlaintext(seed uint64) [16]byte {
	var pt [16]byte
	rng := rand.New(rand.NewSource(int64(seed)))
	for b := range pt {
		pt[b] = byte(rng.Intn(256))
	}
	return pt
}

// evaluateArm runs one arm's full campaign as a single pass: every
// simulated trace flows straight from the worker reduction into the
// streaming accumulators (leakage.CPAStream / leakage.TVLAStream) and
// is discarded, so the arm's resident analysis state is O(poi×guesses)
// regardless of the trace budget — the buffered formulation held every
// trace and recomputed each sweep point from scratch. The result is
// independent of worker count and goroutine scheduling: every random
// choice is keyed by trace identity and the reduction feeds the
// accumulators strictly in trace-index order.
//
//emsim:ordered
func evaluateArm(ctx context.Context, opts Options, w *workload, name string, spec Spec) (*ArmResult, error) {
	res := &ArmResult{Name: name}
	total := opts.CPATraces + 2*opts.TVLATraces
	var done atomic.Int64
	report := func(n int) {
		d := int(done.Add(int64(n)))
		if opts.Progress != nil {
			opts.Progress(name, d, total)
		}
	}
	lane := obs.NextLane() // analysis snapshots

	// ---- CPA: key-rank curve, one pass ----
	trueGuess := int(opts.Key[0])
	// With CPAPoints > 0 the stream reduces every trace to the
	// highest-variance columns of its first CPAStep traces (the pilot) —
	// cheaper but able to miss low-variance leaks, like the buffered
	// whole-campaign selection it replaces; 0 attacks every column.
	cpa := leakage.NewCPAStream(256, opts.CPAPoints, opts.CPAStep)
	hypRow := make([]float64, 256)
	var sumCycles, sumInjected float64
	cpaSeed := int64(stream(opts.Seed, lanePart, 1))
	err := streamTraces(ctx, opts, spec, cpaSeed, w.cpa, report, func(i int, amp []float64, cycles, injected int) error {
		sumCycles += float64(cycles)
		sumInjected += float64(injected)
		cpaHypothesisRow(w.cpaPt[i], hypRow)
		if aerr := cpa.Add(amp, hypRow); aerr != nil {
			return fmt.Errorf("defend: %s: CPA trace %d: %w", name, i, aerr)
		}
		if (i+1)%opts.CPAStep != 0 {
			return nil
		}
		obs.Begin(spanAnalyze, lane)
		cr, serr := cpa.Snapshot()
		obs.End(spanAnalyze, lane)
		if serr != nil {
			return fmt.Errorf("defend: %s: CPA at %d traces: %w", name, i+1, serr)
		}
		res.CPARanks = append(res.CPARanks, RankPoint{Traces: i + 1, Rank: cr.Rank(trueGuess), Margin: cr.Margin()})
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.MeanCycles = sumCycles / float64(opts.CPATraces)
	res.MeanInjected = sumInjected / float64(opts.CPATraces)
	res.CPASamples = cpa.Samples()
	res.CPATruncated = cpa.TruncatedSamples()
	for i := len(res.CPARanks) - 1; i >= 0 && res.CPARanks[i].Rank == 0; i-- {
		res.DiscloseTraces = res.CPARanks[i].Traces
	}

	// ---- TVLA: fixed vs random detection sweep, one pass ----
	tv := leakage.NewTVLAStream()
	sweep := sweepSizes(opts.TVLATraces)
	nextSweep := 0
	tvlaSeed := int64(stream(opts.Seed, lanePart, 2))
	err = streamTraces(ctx, opts, spec, tvlaSeed, w.tvla, report, func(i int, amp []float64, _, _ int) error {
		if i%2 == 0 {
			return tv.AddFixed(amp)
		}
		if aerr := tv.AddRandom(amp); aerr != nil {
			return aerr
		}
		g := (i + 1) / 2 // complete fixed/random pairs so far
		if nextSweep >= len(sweep) || g != sweep[nextSweep] {
			return nil
		}
		nextSweep++
		obs.Begin(spanAnalyze, lane)
		defer obs.End(spanAnalyze, lane)
		if g == opts.TVLATraces {
			// Final sweep point: the full snapshot also yields the leaky
			// point count at the complete budget.
			snap, serr := tv.Snapshot()
			if serr != nil {
				return fmt.Errorf("defend: %s: TVLA at %d traces: %w", name, g, serr)
			}
			res.TVLASweep = append(res.TVLASweep, TVLAPoint{Traces: g, MaxAbsT: snap.MaxAbsT})
			if res.DetectTraces == 0 && snap.MaxAbsT > stats.TVLAThreshold {
				res.DetectTraces = g
			}
			res.MaxAbsT = snap.MaxAbsT
			res.LeakyPoints = len(snap.LeakyPoints)
			return nil
		}
		maxAbs, serr := tv.MaxAbsT()
		if serr != nil {
			return fmt.Errorf("defend: %s: TVLA at %d traces: %w", name, g, serr)
		}
		res.TVLASweep = append(res.TVLASweep, TVLAPoint{Traces: g, MaxAbsT: maxAbs})
		if res.DetectTraces == 0 && maxAbs > stats.TVLAThreshold {
			res.DetectTraces = g
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.TVLASamples = tv.Samples()
	res.TVLATruncated = tv.TruncatedSamples()
	return res, nil
}

// cpaHypothesisRow fills row[g] with candidate g's predicted leakage for
// a trace whose first plaintext byte is pt. The distinguisher targets
// the round-1 S-box lookup transition x -> S(x) (Hamming distance)
// rather than plain HW(S(x)): the pipeline's amplitude model leaks latch
// transitions, and the plain-weight model leaves a persistent ghost peak
// that keeps the true key at rank 1-2. The table is built for all 256
// candidates unconditionally from the public plaintext byte; the secret
// key only selects the true candidate index at the call site.
func cpaHypothesisRow(pt byte, row []float64) {
	for g := 0; g < 256; g++ {
		x := pt ^ byte(g)
		row[g] = leakage.HammingWeight(uint32(aes.SBox(x) ^ x))
	}
}

// traceOut is one simulated trace crossing from a worker to the
// consumer: the per-cycle amplitude vector (noise added, owned by the
// receiver) plus the run's cycle and injected-slot counts, or the
// simulation error for that index.
type traceOut struct {
	amp      []float64
	cycles   int
	injected int
	err      error
}

// streamTraces simulates progs[i] for every i across opts.Workers
// workers, each with a private defended Session, and hands each trace to
// consume exactly once, in strictly ascending index order, on the caller
// goroutine — so consume can fold into accumulators without locks and
// the reduction is byte-identical at any worker count. Traces are
// discarded after consumption: at most ~2 traces per worker are resident
// at once, never the campaign.
//
// Worker w owns indices w, w+W, w+2W, ... (static round-robin) and sends
// over its own single-slot channel; the consumer walks the channels in
// index order, so no select is needed and arrival order cannot leak into
// the result. Failures propagate like core.SimulateBatch: the
// lowest-indexed failing trace wins, deterministically. A consume error
// stops the campaign the same way.
//
//emsim:ordered
func streamTraces(ctx context.Context, opts Options, spec Spec, seed int64, progs [][]uint32, report func(int), consume func(i int, amp []float64, cycles, injected int) error) error {
	n := len(progs)
	if n == 0 {
		return nil
	}
	workers := opts.Workers
	if workers > n {
		workers = n
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	outs := make([]chan traceOut, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range outs {
		out := make(chan traceOut, 1)
		outs[w] = out
		go func(w int, out chan traceOut) {
			defer wg.Done()
			defer close(out)
			var cm Countermeasure
			if spec.Name != "" {
				var cerr error
				if cm, cerr = spec.New(); cerr != nil {
					out <- traceOut{err: cerr}
					return
				}
			}
			sess, serr := NewSession(opts.Model, opts.CPU, cm, seed)
			if serr != nil {
				out <- traceOut{err: serr}
				return
			}
			noise, nerr := core.NewExtractedNoise(opts.Model.SamplesPerCycle, opts.Model.Kernel)
			if nerr != nil {
				out <- traceOut{err: nerr}
				return
			}
			traceLane := obs.NextLane()
			rng := rand.New(rand.NewSource(0))
			size := 0 // previous trace's length: the next one's capacity
			for i := w; i < n; i += workers {
				if runCtx.Err() != nil {
					return
				}
				obs.Begin(spanTrace, traceLane)
				amp, rerr := sess.AmplitudesInto(runCtx, make([]float64, 0, size), int64(i), progs[i])
				if rerr != nil {
					obs.End(spanTrace, traceLane)
					out <- traceOut{err: rerr}
					continue
				}
				// Reseeding the worker's one generator gives trace i the
				// stream a fresh generator would, without allocating one.
				rng.Seed(int64(stream(seed, laneNoise, int64(i))))
				noise.AddTo(amp, opts.NoiseStd, rng)
				size = len(amp)
				obs.End(spanTrace, traceLane)
				out <- traceOut{amp: amp, cycles: sess.Cycles(), injected: sess.Stats().Injected}
				// report is concurrency-safe (atomic counter, callback
				// contract allows concurrent out-of-order calls).
				report(1)
			}
		}(w, out)
	}
	var firstErr error
	for i := 0; i < n; i++ {
		o, ok := <-outs[i%workers]
		if !ok {
			// The worker exited after delivering a setup error for an
			// earlier index; without one this is a missing-trace bug.
			firstErr = fmt.Errorf("defend: trace %d missing (worker exited early)", i)
			break
		}
		if o.err != nil {
			firstErr = o.err
			break
		}
		if cerr := consume(i, o.amp, o.cycles, o.injected); cerr != nil {
			firstErr = cerr
			break
		}
	}
	if firstErr != nil {
		cancel()
		for _, ch := range outs {
			for range ch {
			}
		}
		wg.Wait()
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return firstErr
	}
	wg.Wait()
	return nil
}

// sweepSizes returns the doubling TVLA sweep grid {4, 8, 16, ...} capped
// at and always including g.
func sweepSizes(g int) []int {
	var out []int
	for s := 4; s < g; s *= 2 {
		out = append(out, s)
	}
	return append(out, g)
}

// String renders the report as a readable summary table.
func (r *SecurityReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "defense %s (seed %d)\n", r.Defense, r.Seed)
	fmt.Fprintf(&b, "%-22s %14s %14s\n", "", "baseline", "defended")
	fmt.Fprintf(&b, "%-22s %14.1f %14.1f\n", "mean cycles", r.Baseline.MeanCycles, r.Defended.MeanCycles)
	fmt.Fprintf(&b, "%-22s %14.2f %14.2f\n", "TVLA |t|max", r.Baseline.MaxAbsT, r.Defended.MaxAbsT)
	fmt.Fprintf(&b, "%-22s %14d %14d\n", "TVLA leaky points", r.Baseline.LeakyPoints, r.Defended.LeakyPoints)
	fmt.Fprintf(&b, "%-22s %14s %14s\n", "TVLA detect @", traceCount(r.Baseline.DetectTraces), traceCount(r.Defended.DetectTraces))
	fmt.Fprintf(&b, "%-22s %14s %14s\n", "CPA disclose @", traceCount(r.Baseline.DiscloseTraces), traceCount(r.Defended.DiscloseTraces))
	fmt.Fprintf(&b, "leakage reduction      %6.1f%%\n", 100*r.LeakageReduction)
	cost := fmt.Sprintf("%.1fx", r.AttackCostMultiplier)
	if r.CostIsLowerBound {
		cost = ">" + cost
	}
	fmt.Fprintf(&b, "attack cost            %s\n", cost)
	fmt.Fprintf(&b, "cycle overhead         %6.1f%%\n", 100*r.CycleOverhead)
	return b.String()
}

func traceCount(n int) string {
	if n == 0 {
		return "never"
	}
	return fmt.Sprintf("%d", n)
}
