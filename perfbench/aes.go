package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"emsim/internal/aes"
	"emsim/internal/core"
	"emsim/internal/defend"
	"emsim/internal/obs"
	"emsim/internal/stats"
)

// aesWorkload is the paper's TVLA/CPA use case: sequential
// defend.Evaluate campaigns against the shuffle defense, one worker,
// CPA on every column. One data-independent AES program runs thousands
// of times, so decode, pipeline, amplitude model, noise and the CPA
// kernel do most of the work.
type aesWorkload struct {
	b         *bench
	ref       reference
	spec      defend.Spec
	campaigns int    // campaigns started so far; keys each campaign's seed
	report0   []byte // campaign 0's SecurityReport as JSON
}

func newAESWorkload(b *bench) workload { return &aesWorkload{b: b} }

func (w *aesWorkload) setup(ctx context.Context) error {
	spec, err := defend.ParseSpec("shuffle")
	if err != nil {
		return err
	}
	w.spec = spec
	return w.ref.setup(ctx, w.b.cfg.size)
}

// tracesPerArm is one campaign arm's trace count.
func (w *aesWorkload) tracesPerArm() int {
	sz := w.b.cfg.size
	return sz.cpaTraces + 2*sz.tvlaTraces
}

// campaign is campaign i's options at the given simulation fan-out.
func (w *aesWorkload) campaign(i, workers int) defend.Options {
	sz := w.b.cfg.size
	return defend.Options{
		Model:      w.ref.model(),
		CPU:        modelCPU(w.ref.dev),
		Defense:    w.spec,
		Seed:       subSeed(w.b.cfg.seed, laneCampaign, uint64(i)),
		Workers:    workers,
		TVLATraces: sz.tvlaTraces,
		CPATraces:  sz.cpaTraces,
		CPAStep:    sz.cpaStep,
	}
}

func (w *aesWorkload) run(ctx context.Context, d time.Duration) (*window, error) {
	win := &window{}
	start := time.Now()
	for win.elapsed < d || len(win.ops) == 0 {
		i := w.campaigns
		w.campaigns++
		w.b.attempted++
		t0 := time.Now()
		obs.Begin(spanOp, w.b.lane)
		r, err := defend.Evaluate(ctx, w.campaign(i, 1))
		obs.End(spanOp, w.b.lane)
		dur := time.Since(t0)
		win.elapsed = time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("campaign %d: %w", i, err)
		}
		w.checkReport(i, r)
		n := float64(w.tracesPerArm())
		win.ops = append(win.ops, opSample{
			end: win.elapsed, dur: dur,
			traces: 2 * n,
			cycles: n * (r.Baseline.MeanCycles + r.Defended.MeanCycles),
		})
	}
	return win, nil
}

// checkReport checks one campaign's security verdict: the baseline arm's
// TVLA detects the leak and the shuffle arm lowers |t|max. The first
// campaign's report is kept for the determinism check, and its digest
// identifies the run's outputs.
func (w *aesWorkload) checkReport(i int, r *defend.SecurityReport) {
	w.b.check(r.Baseline.MaxAbsT > stats.TVLAThreshold,
		"campaign %d: baseline TVLA |t|max %.3f does not exceed %.1f", i, r.Baseline.MaxAbsT, stats.TVLAThreshold)
	w.b.check(r.Defended.MaxAbsT < r.Baseline.MaxAbsT,
		"campaign %d: shuffle |t|max %.3f not below baseline %.3f", i, r.Defended.MaxAbsT, r.Baseline.MaxAbsT)
	if i != 0 {
		return
	}
	js, err := json.Marshal(r)
	w.b.check(err == nil, "campaign 0: encode report: %v", err)
	w.report0 = js
	sum := sha256.Sum256(js)
	w.b.meta["report_sha256"] = hex.EncodeToString(sum[:])
}

// plaintexts returns n seeded plaintexts.
func (w *aesWorkload) plaintexts(n int) [][16]byte {
	out := make([][16]byte, n)
	for i := range out {
		rng := rand.New(rand.NewSource(subSeed(w.b.cfg.seed, lanePlaintext, uint64(i))))
		for k := range out[i] {
			out[i][k] = byte(rng.Intn(256))
		}
	}
	return out
}

// verify checks the campaign path and a sample of campaign-shaped
// traces. Campaign 0, re-run with two simulation workers, must yield a
// byte-identical report (defend.Evaluate's determinism contract). For
// each sampled plaintext, the ciphertext the simulated core computed
// matches the reference AES, and the fused core.Session signal and the
// baseline arm's defend.Session signal are both bit-equal to
// Model.SimulateProgram.
func (w *aesWorkload) verify(ctx context.Context) error {
	m, cfg := w.ref.model(), modelCPU(w.ref.dev)
	if w.report0 != nil {
		r, err := defend.Evaluate(ctx, w.campaign(0, 2))
		if err != nil {
			return fmt.Errorf("campaign 0 with 2 workers: %w", err)
		}
		js, err := json.Marshal(r)
		if err != nil {
			return err
		}
		w.b.check(bytes.Equal(js, w.report0), "campaign 0: report with 2 workers differs from the 1-worker report")
	}
	sess, err := core.NewSession(m, cfg)
	if err != nil {
		return err
	}
	baseline, err := defend.NewSession(m, cfg, nil, subSeed(w.b.cfg.seed, laneCampaign, 0))
	if err != nil {
		return err
	}
	for i, pt := range w.plaintexts(w.b.cfg.size.checkTraces) {
		prog, err := aes.BuildProgram(defend.DefaultKey, pt)
		if err != nil {
			return err
		}
		sig, err := sess.SimulateProgram(prog.Words)
		if err != nil {
			return fmt.Errorf("check trace %d: %w", i, err)
		}
		got := prog.Output(sess.CPU().Memory().ReadWord)
		w.b.check(got == aes.Reference(defend.DefaultKey, pt), "check trace %d: simulated ciphertext %x differs from reference AES", i, got)
		armSig, err := baseline.SimulateTraceInto(ctx, nil, int64(i), prog.Words)
		if err != nil {
			return fmt.Errorf("check trace %d baseline arm: %w", i, err)
		}
		_, ref, err := m.SimulateProgram(cfg, prog.Words)
		if err != nil {
			return fmt.Errorf("check trace %d reference: %w", i, err)
		}
		w.b.check(sameBits(sig, ref), "check trace %d: fused session signal differs from Model.SimulateProgram", i)
		w.b.check(sameBits(armSig, ref), "check trace %d: baseline arm's defend.Session signal differs from Model.SimulateProgram", i)
	}
	return nil
}

func (w *aesWorkload) endToEnd(context.Context) error { return w.ref.endToEnd(w.b) }

// layers replays every layer on the campaign's AES programs and checks
// the split: layers.unaccounted_frac is the share of campaign time per
// trace the replayed layers do not explain.
func (w *aesWorkload) layers(ctx context.Context, untraced *window) error {
	var corpus [][]uint32
	for _, pt := range w.plaintexts(w.b.cfg.size.corpus) {
		prog, err := aes.BuildProgram(defend.DefaultKey, pt)
		if err != nil {
			return err
		}
		corpus = append(corpus, prog.Words)
	}
	env := replayEnv{model: w.ref.model(), cfg: modelCPU(w.ref.dev), dev: w.ref.dev, corpus: corpus, seed: w.b.cfg.seed}
	c, err := replayLayers(ctx, w.b, env)
	if err != nil {
		return err
	}
	if _, err := replayServe(ctx, w.b, env, c, true); err != nil {
		return err
	}
	setTrainerMetrics(w.b, w.ref.runs[len(w.ref.runs)-1])
	sz := w.b.cfg.size
	campaignNs := medianDur(untraced.ops) * 1e9 / float64(2*w.tracesPerArm())
	// The step already contains the fetch decode, so decode is not added
	// a second time.
	explained := c.pipelineNsPerTrace() + c.extractNsPerTrace +
		c.analyticsNsPerTrace(sz.cpaTraces, sz.tvlaTraces, sz.cpaStep) +
		c.noiseNsPerTrace + c.armNsPerTrace/2
	w.b.set("layers.unaccounted_frac", 1-explained/campaignNs, "frac")
	w.b.meta["campaign_ns_per_trace"] = campaignNs
	return nil
}

func (w *aesWorkload) close() {}
