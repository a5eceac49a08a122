package main

import (
	"context"
	"time"

	"emsim/internal/core"
	"emsim/internal/device"
	"emsim/internal/obs"
)

// trainWorkload is repeated cold training: core.Trainer.Run at the
// default options on a seeded synthetic device, every CPU measuring and
// a fresh measurement cache each time. The device emitter, kernel fit
// and stepwise regression do all the work here and none in the other
// workloads.
type trainWorkload struct {
	b       *bench
	dev     *device.Device
	heldOut [][]uint32
	runs    []*trained // every model trained in the run
}

func newTrainWorkload(b *bench) workload { return &trainWorkload{b: b} }

// setup builds the device, board #1 with seeded measurement noise, and
// the held-out programs the fresh models are scored and timed on.
func (w *trainWorkload) setup(context.Context) error {
	opts := device.DefaultOptions()
	opts.NoiseSeed = subSeed(w.b.cfg.seed, laneDevice, 0)
	dev, err := device.New(opts)
	if err != nil {
		return err
	}
	sz := w.b.cfg.size
	// Many short programs, so the timed mix varies little between seeds.
	progs, err := mixedPrograms(w.b.cfg.seed, laneHeldOut, sz.simPrograms, func(int) int { return sz.heldOutLen })
	if err != nil {
		return err
	}
	w.dev, w.heldOut = dev, progs
	return nil
}

func (w *trainWorkload) run(ctx context.Context, d time.Duration) (*window, error) {
	win := &window{}
	start := time.Now()
	for win.elapsed < d || len(win.ops) == 0 {
		w.b.attempted++
		obs.Begin(spanOp, w.b.lane)
		t, err := train(ctx, w.dev, w.b.cfg.size)
		obs.End(spanOp, w.b.lane)
		if err != nil {
			return nil, err
		}
		cycles, simDur, err := w.simulateHeldOut(t.model)
		if err != nil {
			return nil, err
		}
		win.elapsed = time.Since(start)
		win.ops = append(win.ops, opSample{
			end: win.elapsed, dur: t.dur,
			traces: float64(t.cache.Misses),
			cycles: cycles, simDur: simDur,
		})
		w.runs = append(w.runs, t)
	}
	return win, nil
}

// simulateHeldOut times the fresh model simulating the held-out
// programs through a core.Session: how fast the model just trained
// simulates, which its selected activity bits decide.
func (w *trainWorkload) simulateHeldOut(m *core.Model) (float64, time.Duration, error) {
	sess, err := core.NewSession(m, modelCPU(w.dev))
	if err != nil {
		return 0, 0, err
	}
	var buf []float64
	cycles := 0
	t0 := time.Now()
	for r := 0; r < w.b.cfg.size.simRepeats; r++ {
		for _, words := range w.heldOut {
			if buf, err = sess.SimulateProgramInto(buf, words); err != nil {
				return 0, 0, err
			}
			cycles += sess.Cycles()
		}
	}
	return float64(cycles), time.Since(t0), nil
}

// verify checks that every model trained in the run serializes
// byte-identically.
func (w *trainWorkload) verify(context.Context) error { return checkSameModels(w.b, w.runs) }

// endToEnd sets train_s, the median training time, and accuracy_ncc of
// the run's model against its device.
func (w *trainWorkload) endToEnd(context.Context) error {
	var durs []float64
	for _, t := range w.runs {
		durs = append(durs, t.dur.Seconds())
	}
	w.b.set("train_s", median(durs), "s")
	acc, err := heldOutAccuracy(w.runs[0].model, w.dev, w.b.cfg.seed, w.b.cfg.size)
	if err != nil {
		return err
	}
	w.b.set("accuracy_ncc", acc, "ncc")
	return nil
}

// layers replays every layer on seeded mixed programs with the run's
// model, and splits the last training campaign by phase:
// layers.unaccounted_frac is the share of Trainer.Run time outside its
// four phases.
func (w *trainWorkload) layers(ctx context.Context, _ *window) error {
	sz := w.b.cfg.size
	corpus, err := mixedPrograms(w.b.cfg.seed, laneCorpus, sz.corpus, func(int) int { return sz.heldOutLen })
	if err != nil {
		return err
	}
	env := replayEnv{model: w.runs[0].model, cfg: modelCPU(w.dev), dev: w.dev, corpus: corpus, seed: w.b.cfg.seed}
	c, err := replayLayers(ctx, w.b, env)
	if err != nil {
		return err
	}
	if _, err := replayServe(ctx, w.b, env, c, true); err != nil {
		return err
	}
	last := w.runs[len(w.runs)-1]
	setTrainerMetrics(w.b, last)
	var phases time.Duration
	for _, d := range last.phases {
		phases += d
	}
	w.b.set("layers.unaccounted_frac", 1-phases.Seconds()/last.dur.Seconds(), "frac")
	return nil
}

func (w *trainWorkload) close() {}
