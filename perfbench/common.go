package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"emsim/internal/core"
	"emsim/internal/cpu"
	"emsim/internal/device"
)

// subSeed derives an independent seed for stream i of purpose lane from
// the benchmark seed (splitmix64 finalizer).
func subSeed(seed int64, lane, i uint64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 ^ lane*0xD1B54A32D192ED03 ^ (i+1)*0x8CB92BA72F3D8DD7
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Seed lanes: each kind of generated input draws from its own lane.
const (
	laneHeldOut uint64 = iota + 1
	laneCampaign
	lanePlaintext
	laneRequest
	laneCorpus
	laneDevice
)

// mixedPrograms generates count seeded core.MixedProgram images, program
// i of length n(i).
func mixedPrograms(seed int64, lane uint64, count int, n func(i int) int) ([][]uint32, error) {
	out := make([][]uint32, count)
	for i := range out {
		words, err := core.MixedProgram(rand.New(rand.NewSource(subSeed(seed, lane, uint64(i)))), n(i))
		if err != nil {
			return nil, fmt.Errorf("mixed program %d: %w", i, err)
		}
		out[i] = words
	}
	return out, nil
}

// trained is one training campaign's outcome. It keeps the phase split
// and cache counts as values, so the campaign's measurements are freed
// once it ends.
type trained struct {
	model  *core.Model
	phases [core.NumPhases]time.Duration
	cache  core.CacheStats
	dur    time.Duration
}

// train runs one cold training campaign on dev: the size's options,
// every CPU as a measurement worker and a fresh measurement cache.
func train(ctx context.Context, dev *device.Device, sz sizes) (*trained, error) {
	opts := sz.train
	opts.Workers = workers()
	opts.Cache = core.NewMeasurementCache()
	t, err := core.NewTrainer(dev, opts)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	m, err := t.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	dur := time.Since(t0)
	return &trained{model: m, phases: t.PhaseTimings(), cache: opts.Cache.Stats(), dur: dur}, nil
}

// setTrainerMetrics reports one campaign's phase split and measurement
// cache counts.
func setTrainerMetrics(b *bench, t *trained) {
	pt := t.phases
	b.set("train.kernelfit_s", pt[core.PhaseKernel].Seconds(), "s")
	b.set("train.baseline_s", pt[core.PhaseBaseline].Seconds(), "s")
	b.set("train.activity_s", pt[core.PhaseActivity].Seconds(), "s")
	b.set("train.miso_s", pt[core.PhaseMISO].Seconds(), "s")
	cs := t.cache
	b.set("train.measurements", float64(cs.Misses), "count")
	b.set("train.cache_hit_frac", ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses)), "count")
}

// modelCPU is the core configuration a model trained on dev simulates.
func modelCPU(dev *device.Device) cpu.Config {
	cfg := dev.Options().CPU
	cfg.BuggyMul = false
	return cfg
}

// heldOutAccuracy is the mean per-cycle NCC of m against dev on seeded
// mixed programs the training campaign never saw.
func heldOutAccuracy(m *core.Model, dev *device.Device, seed int64, sz sizes) (float64, error) {
	progs, err := mixedPrograms(seed, laneHeldOut, sz.heldOut, func(int) int { return sz.heldOutLen })
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for i, words := range progs {
		c, err := m.CompareOnDevice(dev, words, sz.compareRuns)
		if err != nil {
			return 0, fmt.Errorf("held-out program %d: %w", i, err)
		}
		sum += c.Accuracy
	}
	return sum / float64(len(progs)), nil
}

// reference is the fixed model the aes-campaign and serve-mixed
// workloads train at set-up, as a cold CLI start does: the default
// device and the size's training options.
type reference struct {
	dev  *device.Device
	runs []*trained // every set-up's campaign; the last one is used
}

func (r *reference) setup(ctx context.Context, sz sizes) error {
	dev, err := device.New(device.DefaultOptions())
	if err != nil {
		return err
	}
	t, err := train(ctx, dev, sz)
	if err != nil {
		return err
	}
	r.dev = dev
	r.runs = append(r.runs, t)
	return nil
}

func (r *reference) model() *core.Model { return r.runs[len(r.runs)-1].model }

// endToEnd sets train_s (median set-up campaign) and accuracy_ncc, and
// checks that every set-up trained the same model.
func (r *reference) endToEnd(b *bench) error {
	var durs []float64
	for _, t := range r.runs {
		durs = append(durs, t.dur.Seconds())
	}
	b.set("train_s", median(durs), "s")
	if err := checkSameModels(b, r.runs); err != nil {
		return err
	}
	acc, err := heldOutAccuracy(r.model(), r.dev, b.cfg.seed, b.cfg.size)
	if err != nil {
		return err
	}
	b.set("accuracy_ncc", acc, "ncc")
	return nil
}

// checkSameModels checks that every campaign trained within the run
// serializes byte-identically: training is a pure function of the
// device and the options.
func checkSameModels(b *bench, runs []*trained) error {
	var first []byte
	for i, t := range runs {
		var buf bytes.Buffer
		if err := t.model.Save(&buf); err != nil {
			return fmt.Errorf("serialize model %d: %w", i, err)
		}
		if i == 0 {
			first = buf.Bytes()
			continue
		}
		b.check(bytes.Equal(buf.Bytes(), first), "model %d of the run serializes differently from model 0", i)
	}
	return nil
}
