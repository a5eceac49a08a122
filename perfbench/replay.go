package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"emsim/internal/aes"
	"emsim/internal/core"
	"emsim/internal/cpu"
	"emsim/internal/defend"
	"emsim/internal/device"
	"emsim/internal/isa"
	"emsim/internal/leakage"
	"emsim/internal/obs"
)

// campaignNoise is defend.Evaluate's default measurement-noise sigma,
// which the noise replay reproduces.
const campaignNoise = 0.02

// replayEnv is what the layer replay runs on: a workload's model, core
// configuration, device and its own programs.
type replayEnv struct {
	model  *core.Model
	cfg    cpu.Config
	dev    *device.Device
	corpus [][]uint32
	seed   int64
}

// layerCosts are the replayed per-layer costs and the corpus shape.
type layerCosts struct {
	cyclesPerTrace  float64
	fetchesPerTrace float64

	decodeNsPerInst    float64
	stepNsPerCycle     float64 // RunProgramTo, fetch decode included
	ampNsPerCycle      float64
	reconNsPerCycle    float64
	sessionNsPerTrace  float64
	sessionNsByProgram []float64 // fused session time of each corpus program
	cyclesByProgram    []float64
	extractNsPerTrace  float64
	defendNsPerTrace   float64
	armNsPerTrace      float64
	noiseNsPerTrace    float64
	cpaNsPerTrace      float64
	tvlaNsPerTrace     float64
	snapshotNs         float64
}

// pipelineNsPerTrace is what simulating one trace costs when composed
// from the replayed layers (step + amplitude + reconstruct).
func (c *layerCosts) pipelineNsPerTrace() float64 {
	return c.cyclesPerTrace * (c.stepNsPerCycle + c.ampNsPerCycle + c.reconNsPerCycle)
}

// sink keeps replayed results observable so the loops cannot be
// optimized away.
var sink float64

// timeLayer runs pass once untimed (warm-up), then repeatedly inside
// span s until at least min has elapsed, and returns nanoseconds per
// unit of work (pass reports the units it did).
func timeLayer(b *bench, s obs.SpanID, pass func() (float64, error)) (float64, error) {
	if _, err := pass(); err != nil {
		return 0, err
	}
	obs.Begin(s, b.lane)
	defer obs.End(s, b.lane)
	var units float64
	t0 := time.Now()
	for {
		u, err := pass()
		if err != nil {
			return 0, err
		}
		units += u
		if el := time.Since(t0); el >= b.cfg.size.replayMin {
			return float64(el.Nanoseconds()) / units, nil
		}
	}
}

// replayLayers times every simulation and analytics layer on env's
// corpus through the layers' public functions, sets their per-layer
// metrics and checks the fused session against the reference path.
func replayLayers(ctx context.Context, b *bench, env replayEnv) (*layerCosts, error) {
	m, cfg, corpus := env.model, env.cfg, env.corpus
	c := &layerCosts{}
	n := float64(len(corpus))

	// Record each program's cycle trace once, with the reference path.
	traces := make([]cpu.Trace, len(corpus))
	refs := make([][]float64, len(corpus))
	var fetched []uint32
	var st cpu.Stats
	for i, words := range corpus {
		tr, sig, err := m.SimulateProgram(cfg, words)
		if err != nil {
			return nil, fmt.Errorf("reference simulate %d: %w", i, err)
		}
		traces[i], refs[i] = tr, sig
		for k := range tr {
			if f := &tr[k].Stages[cpu.IF]; !f.Bubble && !f.Stalled {
				fetched = append(fetched, f.Latch[1])
			}
		}
	}
	core0, err := cpu.New(cfg)
	if err != nil {
		return nil, err
	}
	discard := cpu.CycleSinkFunc(func(*cpu.Cycle) error { return nil })
	for i, words := range corpus {
		if err := core0.RunProgramTo(words, discard); err != nil {
			return nil, fmt.Errorf("step %d: %w", i, err)
		}
		s := core0.Stats()
		c.cyclesByProgram = append(c.cyclesByProgram, float64(s.Cycles))
		st.Cycles += s.Cycles
		st.Retired += s.Retired
		st.StallCycles += s.StallCycles
		st.CacheHits += s.CacheHits
		st.CacheMisses += s.CacheMisses
		st.Mispredicts += s.Mispredicts
	}
	c.cyclesPerTrace = float64(st.Cycles) / n
	c.fetchesPerTrace = float64(len(fetched)) / n
	b.set("cpu.cycles_per_trace", c.cyclesPerTrace, "count")
	b.set("cpu.ipc", st.IPC(), "count")
	b.set("cpu.stall_cycle_frac", float64(st.StallCycles)/float64(st.Cycles), "count")
	b.set("cpu.cache_miss_rate", ratio(float64(st.CacheMisses), float64(st.CacheHits+st.CacheMisses)), "count")
	b.set("cpu.mispredicts_per_kinst", 1000*ratio(float64(st.Mispredicts), float64(st.Retired)), "count")
	bits := 0
	for s := range m.Activity {
		bits += len(m.Activity[s].Selected)
	}
	b.set("core.activity_selected_bits", float64(bits), "count")

	// isa: decode every word the traces fetched.
	c.decodeNsPerInst, err = timeLayer(b, spanDecode, func() (float64, error) {
		ok := 0
		for _, w := range fetched {
			if in, valid := isa.TryDecode(w); valid {
				ok += int(in.Op)
			}
		}
		sink += float64(ok)
		return float64(len(fetched)), nil
	})
	if err != nil {
		return nil, err
	}
	// cpu: the pipeline alone, cycles streamed into a discarding sink.
	c.stepNsPerCycle, err = timeLayer(b, spanStep, func() (float64, error) {
		for _, words := range corpus {
			if err := core0.RunProgramTo(words, discard); err != nil {
				return 0, err
			}
		}
		return float64(st.Cycles), nil
	})
	if err != nil {
		return nil, err
	}
	// core: the amplitude model over the recorded cycles.
	amps := make([][]float64, len(corpus))
	for i, tr := range traces {
		amps[i] = make([]float64, len(tr))
	}
	c.ampNsPerCycle, err = timeLayer(b, spanAmplitude, func() (float64, error) {
		for i, tr := range traces {
			a := amps[i]
			for k := range tr {
				a[k] = m.CycleAmplitude(&tr[k])
			}
		}
		return float64(st.Cycles), nil
	})
	if err != nil {
		return nil, err
	}
	// signal: overlap-add reconstruction of those amplitudes.
	rec, err := m.Kernel.NewReconstructor(m.SamplesPerCycle)
	if err != nil {
		return nil, err
	}
	var buf []float64
	c.reconNsPerCycle, err = timeLayer(b, spanRecon, func() (float64, error) {
		for _, a := range amps {
			rec.Start(buf)
			for _, v := range a {
				rec.Add(v)
			}
			buf = rec.Finish()
		}
		return float64(st.Cycles), nil
	})
	if err != nil {
		return nil, err
	}
	// core: the fused session, timed per program.
	sess, err := core.NewSession(m, cfg)
	if err != nil {
		return nil, err
	}
	perProg := make([]time.Duration, len(corpus))
	runs := 0
	c.sessionNsPerTrace, err = timeLayer(b, spanSession, func() (float64, error) {
		for i, words := range corpus {
			t0 := time.Now()
			sig, err := sess.SimulateProgramInto(buf, words)
			perProg[i] += time.Since(t0)
			if err != nil {
				return 0, err
			}
			buf = sig
		}
		runs++
		return n, nil
	})
	if err != nil {
		return nil, err
	}
	for _, d := range perProg {
		c.sessionNsByProgram = append(c.sessionNsByProgram, float64(d.Nanoseconds())/float64(runs))
	}
	sigs := make([][]float64, len(corpus))
	for i, words := range corpus {
		sig, err := sess.SimulateProgram(words)
		if err != nil {
			return nil, err
		}
		sigs[i] = sig
		b.check(sameBits(sig, refs[i]), "fused session signal of replay program %d differs from Model.SimulateProgram", i)
	}
	// measurement noise, as defend.Evaluate adds it per trace.
	noisy := make([][]float64, len(sigs))
	for i, s := range sigs {
		noisy[i] = append([]float64(nil), s...)
	}
	c.noiseNsPerTrace, err = timeLayer(b, spanNoise, func() (float64, error) {
		for i, s := range noisy {
			rng := rand.New(rand.NewSource(env.seed + int64(i)))
			for k := range s {
				s[k] += campaignNoise * rng.NormFloat64()
			}
		}
		return n, nil
	})
	if err != nil {
		return nil, err
	}
	// core: per-cycle amplitude extraction from the noisy signals.
	extracted := make([][]float64, len(noisy))
	c.extractNsPerTrace, err = timeLayer(b, spanExtract, func() (float64, error) {
		for i, s := range noisy {
			a, err := core.ExtractAmplitudes(s, m.SamplesPerCycle, m.Kernel)
			if err != nil {
				return 0, err
			}
			extracted[i] = a
		}
		return n, nil
	})
	if err != nil {
		return nil, err
	}
	// defend: shuffle arming alone, then the armed session.
	spec, err := defend.ParseSpec("shuffle")
	if err != nil {
		return nil, err
	}
	cm, err := spec.New()
	if err != nil {
		return nil, err
	}
	c.armNsPerTrace, err = timeLayer(b, spanArm, func() (float64, error) {
		for i, words := range corpus {
			a, err := cm.Arm(words, uint64(env.seed)+uint64(i))
			if err != nil {
				return 0, err
			}
			sink += float64(len(a.Words))
		}
		return n, nil
	})
	if err != nil {
		return nil, err
	}
	ds, err := defend.NewSession(m, cfg, cm, env.seed)
	if err != nil {
		return nil, err
	}
	injected := 0
	c.defendNsPerTrace, err = timeLayer(b, spanDefended, func() (float64, error) {
		injected = 0
		for i, words := range corpus {
			sig, err := ds.SimulateTraceInto(ctx, buf, int64(i), words)
			if err != nil {
				return 0, err
			}
			buf = sig
			injected += ds.Stats().Injected
		}
		return n, nil
	})
	if err != nil {
		return nil, err
	}
	b.set("cpu.injected_per_trace", float64(injected)/n, "count")
	// leakage: the streaming CPA and TVLA accumulators over the
	// extracted traces, with seeded first-byte hypotheses.
	rng := rand.New(rand.NewSource(env.seed))
	hyps := make([][]float64, len(extracted))
	for i := range hyps {
		pt := byte(rng.Intn(256))
		hyps[i] = make([]float64, 256)
		for g := range hyps[i] {
			x := pt ^ byte(g)
			hyps[i][g] = leakage.HammingWeight(uint32(aes.SBox(x) ^ x))
		}
	}
	cpa := leakage.NewCPAStream(256, 0, b.cfg.size.cpaStep)
	c.cpaNsPerTrace, err = timeLayer(b, spanCPA, func() (float64, error) {
		for i, a := range extracted {
			if err := cpa.Add(a, hyps[i]); err != nil {
				return 0, err
			}
		}
		return n, nil
	})
	if err != nil {
		return nil, err
	}
	tv := leakage.NewTVLAStream()
	c.tvlaNsPerTrace, err = timeLayer(b, spanTVLA, func() (float64, error) {
		for i, a := range extracted {
			add := tv.AddFixed
			if i%2 == 1 {
				add = tv.AddRandom
			}
			if err := add(a); err != nil {
				return 0, err
			}
		}
		return n, nil
	})
	if err != nil {
		return nil, err
	}
	c.snapshotNs, err = timeLayer(b, spanSnapshot, func() (float64, error) {
		r, err := cpa.Snapshot()
		if err != nil {
			return 0, err
		}
		sink += r.Margin()
		return 1, nil
	})
	if err != nil {
		return nil, err
	}
	// device: the synthetic board's averaged measurement.
	meas, err := env.dev.NewMeasurer()
	if err != nil {
		return nil, err
	}
	const measureRuns = 4
	measureNs, err := timeLayer(b, spanMeasure, func() (float64, error) {
		for _, words := range corpus {
			if _, _, err := meas.MeasureAveraged(ctx, words, measureRuns); err != nil {
				return 0, err
			}
		}
		return float64(measureRuns * st.Cycles), nil
	})
	if err != nil {
		return nil, err
	}
	// defend: a minimal two-arm campaign, so the evaluator's own spans
	// appear in every workload's trace.
	obs.Begin(spanEvaluate, b.lane)
	_, err = defend.Evaluate(ctx, defend.Options{
		Model: m, CPU: cfg, Defense: spec, Seed: env.seed, Workers: 1,
		TVLATraces: 4, CPATraces: 12, CPAStep: 4,
	})
	obs.End(spanEvaluate, b.lane)
	if err != nil {
		return nil, fmt.Errorf("minimal evaluate: %w", err)
	}

	b.set("isa.decode_ns_per_inst", c.decodeNsPerInst, "ns")
	b.set("cpu.step_ns_per_cycle", c.stepNsPerCycle, "ns")
	b.set("core.amplitude_ns_per_cycle", c.ampNsPerCycle, "ns")
	b.set("signal.reconstruct_ns_per_cycle", c.reconNsPerCycle, "ns")
	b.set("core.session_ns_per_trace", c.sessionNsPerTrace, "ns")
	b.set("core.extract_ns_per_trace", c.extractNsPerTrace, "ns")
	b.set("defend.session_ns_per_trace", c.defendNsPerTrace, "ns")
	b.set("leakage.cpa_add_ns_per_trace", c.cpaNsPerTrace, "ns")
	b.set("leakage.tvla_add_ns_per_trace", c.tvlaNsPerTrace, "ns")
	b.set("leakage.snapshot_ms", c.snapshotNs/1e6, "ms")
	b.set("device.measure_ns_per_cycle", measureNs, "ns")
	// The campaign-shaped residual: per trace, Evaluate adds noise to
	// every trace and arms the defense on half of them (the defended arm).
	b.set("defend.residual_ns_per_trace", c.noiseNsPerTrace+c.armNsPerTrace/2, "ns")
	b.meta["replay_corpus"] = len(corpus)
	b.meta["replay_fetches_per_trace"] = c.fetchesPerTrace
	return c, nil
}

// analyticsNsPerTrace is the streaming-analytics cost per trace of one
// campaign arm of the given shape: every CPA trace is folded into the
// correlation accumulator, every TVLA trace into the Welch moments, and
// a CPA snapshot is taken every step traces.
func (c *layerCosts) analyticsNsPerTrace(cpaTraces, tvlaTraces, step int) float64 {
	total := float64(cpaTraces)*c.cpaNsPerTrace + float64(2*tvlaTraces)*c.tvlaNsPerTrace +
		float64(cpaTraces/step)*c.snapshotNs
	return total / float64(cpaTraces+2*tvlaTraces)
}

// sameBits reports whether two signals are bit-for-bit equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
