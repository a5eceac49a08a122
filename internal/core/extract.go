package core

import (
	"fmt"
	"math"
	"math/rand"

	"emsim/internal/signal"
)

// FitKernel recovers the device's pulse shape from a measured signal of a
// steady (constant-amplitude) region, reproducing the §II-C model
// selection: candidate kernels are rendered as periodic pulse trains and
// scored by normalized correlation against the measured waveform. The
// grid covers the damped-sinusoid family (Equ. 5); pass KernelRect or
// KernelExp in `kind` to fit the weaker families of Figure 1.
func FitKernel(steady []float64, samplesPerCycle int, kind signal.KernelKind) (signal.Kernel, float64, error) {
	if samplesPerCycle < 2 {
		return signal.Kernel{}, 0, fmt.Errorf("core: FitKernel needs >= 2 samples/cycle")
	}
	cycles := len(steady) / samplesPerCycle
	if cycles < 4 {
		return signal.Kernel{}, 0, fmt.Errorf("core: FitKernel needs >= 4 cycles of steady signal (got %d)", cycles)
	}
	// Fold the steady region onto one clock period (it is periodic up to
	// noise) and remove its mean: the shape is what identifies the kernel.
	folded := make([]float64, samplesPerCycle)
	for c := 0; c < cycles; c++ {
		for s := 0; s < samplesPerCycle; s++ {
			folded[s] += steady[c*samplesPerCycle+s]
		}
	}
	mean := 0.0
	for i := range folded {
		folded[i] /= float64(cycles)
		mean += folded[i]
	}
	mean /= float64(len(folded))
	for i := range folded {
		folded[i] -= mean
	}

	// Render a candidate kernel as the same folded periodic waveform.
	render := func(k signal.Kernel) ([]float64, error) {
		amps := []float64{1, 1, 1, 1, 1, 1}
		y, err := signal.Reconstruct(amps, samplesPerCycle, k)
		if err != nil {
			return nil, err
		}
		// The last cycle is in steady state (all tails included).
		last := y[(len(amps)-1)*samplesPerCycle:]
		out := make([]float64, samplesPerCycle)
		m := 0.0
		for i := range out {
			out[i] = last[i]
			m += last[i]
		}
		m /= float64(len(out))
		for i := range out {
			out[i] -= m
		}
		return out, nil
	}

	// The steady amplitude's sign is unknown (stage couplings may be
	// destructive), so the shape match is sign-agnostic: score = |NCC|.
	score := func(k signal.Kernel) float64 {
		cand, err := render(k)
		if err != nil {
			return -2
		}
		ncc, err := signal.NCC(folded, cand)
		if err != nil {
			return -2
		}
		return math.Abs(ncc)
	}

	best := signal.Kernel{Kind: kind, SupportCycles: 3}
	bestScore := -2.0
	switch kind {
	case signal.KernelRect:
		// A rectangular pulse train folds to a constant; there is nothing
		// to fit. Return it directly with a zero shape score.
		best.Theta, best.Period = 0, 0
		return best, 0, nil
	case signal.KernelExp:
		for theta := 0.5; theta <= 10; theta += 0.25 {
			k := signal.Kernel{Kind: kind, Theta: theta, SupportCycles: 3}
			if sc := score(k); sc > bestScore {
				best, bestScore = k, sc
			}
		}
	case signal.KernelSinExp:
		for theta := 1.0; theta <= 8; theta += 0.5 {
			for period := 0.10; period <= 0.60; period += 0.025 {
				k := signal.Kernel{Kind: kind, Theta: theta, Period: period, SupportCycles: 3}
				if sc := score(k); sc > bestScore {
					best, bestScore = k, sc
				}
			}
		}
		// Refine around the coarse optimum.
		coarse := best
		for theta := coarse.Theta - 0.5; theta <= coarse.Theta+0.5; theta += 0.1 {
			if theta <= 0 {
				continue
			}
			for period := coarse.Period - 0.025; period <= coarse.Period+0.025; period += 0.005 {
				if period <= 0 {
					continue
				}
				k := signal.Kernel{Kind: kind, Theta: theta, Period: period, SupportCycles: 3}
				if sc := score(k); sc > bestScore {
					best, bestScore = k, sc
				}
			}
		}
	default:
		return signal.Kernel{}, 0, fmt.Errorf("core: unknown kernel kind %v", kind)
	}
	if bestScore < -1 {
		return signal.Kernel{}, 0, fmt.Errorf("core: kernel fit failed")
	}
	return best, bestScore, nil
}

// deconv is the cycle-by-cycle deconvolution geometry of a kernel at
// one analog rate, shared by ExtractAmplitudes and ExtractedNoise: the
// kernel's first-cycle taps (head), its energy, and the part of each
// later cycle's taps (tails[b-1] for a pulse b cycles back) that reaches
// into the current cycle window.
type deconv struct {
	head   []float64
	energy float64
	tails  [][]float64
}

func newDeconv(samplesPerCycle int, k signal.Kernel) (deconv, error) {
	taps, err := k.Taps(samplesPerCycle)
	if err != nil {
		return deconv{}, err
	}
	d := deconv{head: taps[:samplesPerCycle]}
	for _, t := range d.head {
		d.energy += t * t
	}
	if d.energy == 0 {
		return deconv{}, fmt.Errorf("core: kernel head has no energy")
	}
	for back := 1; back*samplesPerCycle < len(taps); back++ {
		tail := taps[back*samplesPerCycle:]
		if len(tail) > samplesPerCycle {
			tail = tail[:samplesPerCycle]
		}
		d.tails = append(d.tails, tail)
	}
	return d, nil
}

// ExtractAmplitudes deconvolves a measured analog signal into per-cycle
// amplitudes x̂[n] given the reconstruction kernel: each cycle window is
// matched-filtered against the kernel's first-cycle taps after
// subtracting the predicted tails of the preceding cycles. This inverts
// Equ. 6 greedily, cycle by cycle.
func ExtractAmplitudes(y []float64, samplesPerCycle int, k signal.Kernel) ([]float64, error) {
	d, err := newDeconv(samplesPerCycle, k)
	if err != nil {
		return nil, err
	}
	cycles := len(y) / samplesPerCycle
	if cycles == 0 {
		return nil, fmt.Errorf("core: signal shorter than one cycle")
	}
	out := make([]float64, cycles)
	buf := make([]float64, samplesPerCycle)
	for n := 0; n < cycles; n++ {
		copy(buf, y[n*samplesPerCycle:(n+1)*samplesPerCycle])
		// Subtract tails of earlier cycles that reach into this window.
		for back, tail := range d.tails {
			j := n - 1 - back
			if j < 0 {
				break
			}
			for i, t := range tail {
				buf[i] -= out[j] * t
			}
		}
		dot := 0.0
		for i, t := range d.head {
			dot += buf[i] * t
		}
		out[n] = dot / d.energy
	}
	return out, nil
}

// ExtractedNoise draws, cycle by cycle, the amplitude noise that
// ExtractAmplitudes recovers from white Gaussian analog noise. Extraction
// is linear, so extracting a noisy rendered signal yields the noiseless
// amplitudes plus the extraction of the noise alone:
//
//	e[n] = (w[n] − Σ_b g_b·e[n−b]) / H
//
// where H is the head energy, g_b = ⟨tail_b, head⟩, and w[n] is noise
// window n projected on the head. The windows are disjoint, so for
// analog noise of standard deviation σ the w[n] are independent
// N(0, σ²H): one normal per cycle reproduces the distribution exactly,
// instead of one per analog sample plus a deconvolution.
//
// An ExtractedNoise is not safe for concurrent use.
type ExtractedNoise struct {
	energy float64   // H
	fb     []float64 // g_b/H for b = 1, 2, ...
	hist   []float64 // e[n−1], e[n−2], ... of the current series
}

// NewExtractedNoise builds the noise recursion for a kernel at the given
// analog rate (the same geometry ExtractAmplitudes deconvolves with).
func NewExtractedNoise(samplesPerCycle int, k signal.Kernel) (*ExtractedNoise, error) {
	d, err := newDeconv(samplesPerCycle, k)
	if err != nil {
		return nil, err
	}
	f := &ExtractedNoise{
		energy: d.energy,
		fb:     make([]float64, len(d.tails)),
		hist:   make([]float64, len(d.tails)),
	}
	for b, tail := range d.tails {
		g := 0.0
		for i, t := range tail {
			g += t * d.head[i]
		}
		f.fb[b] = g / d.energy
	}
	return f, nil
}

// reset starts a new series: no earlier cycle contributes.
//
//emsim:noalloc
func (f *ExtractedNoise) reset() {
	for b := range f.hist {
		f.hist[b] = 0
	}
}

// step turns the next cycle's head projection w into its extracted
// noise and records it for the following cycles' feedback.
//
//emsim:noalloc
func (f *ExtractedNoise) step(w float64) float64 {
	e := w / f.energy
	for b, g := range f.fb {
		e -= g * f.hist[b]
	}
	for b := len(f.hist) - 1; b > 0; b-- {
		f.hist[b] = f.hist[b-1]
	}
	if len(f.hist) > 0 {
		f.hist[0] = e
	}
	return e
}

// AddTo adds to amp the amplitude noise ExtractAmplitudes would recover
// from analog noise of standard deviation std per sample, drawing one
// normal per cycle from rng. It allocates nothing.
func (f *ExtractedNoise) AddTo(amp []float64, std float64, rng *rand.Rand) {
	f.reset()
	s := std * math.Sqrt(f.energy) // the spread of a head projection
	for n := range amp {
		amp[n] += f.step(s * rng.NormFloat64())
	}
}

// steadyRegion selects the central portion of an all-NOP capture for
// kernel fitting, skipping the pipeline fill and drain transients.
func steadyRegion(y []float64, samplesPerCycle, skipCycles int) ([]float64, error) {
	total := len(y) / samplesPerCycle
	if total <= 2*skipCycles+4 {
		return nil, fmt.Errorf("core: capture too short for steady region (%d cycles)", total)
	}
	return y[skipCycles*samplesPerCycle : (total-skipCycles)*samplesPerCycle], nil
}

// rmseOf is a small helper for fit diagnostics.
func rmseOf(a, b []float64) float64 {
	r, err := signal.RMSE(a, b)
	if err != nil {
		return math.NaN()
	}
	return r
}
