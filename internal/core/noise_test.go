package core

import (
	"math"
	"math/rand"
	"testing"

	"emsim/internal/signal"
)

// headProjections returns w[n] = ⟨y window n, head⟩, the per-cycle input
// ExtractedNoise.step consumes.
func headProjections(t testing.TB, y []float64, spc int, k signal.Kernel) []float64 {
	t.Helper()
	d, err := newDeconv(spc, k)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, len(y)/spc)
	for n := range w {
		for i, h := range d.head {
			w[n] += y[n*spc+i] * h
		}
	}
	return w
}

// checkNoiseLinearity feeds the noise recursion the head projections of
// an explicit noise vector and compares it with ExtractAmplitudes of that
// vector. tol scales with the largest extracted magnitude so far, since
// an ill-conditioned kernel amplifies both sides' rounding alike.
func checkNoiseLinearity(t testing.TB, y []float64, spc int, k signal.Kernel, tol float64) {
	t.Helper()
	want, err := ExtractAmplitudes(y, spc, k)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewExtractedNoise(spc, k)
	if err != nil {
		t.Fatal(err)
	}
	f.reset()
	scale := 1.0
	for n, w := range headProjections(t, y, spc, k) {
		scale = math.Max(scale, math.Abs(want[n]))
		if got := f.step(w); math.Abs(got-want[n]) > tol*scale {
			t.Fatalf("%v spc %d cycle %d: recursion %v, ExtractAmplitudes %v", k, spc, n, got, want[n])
		}
	}
}

func whiteNoise(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	y := make([]float64, n)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	return y
}

// TestExtractedNoiseMatchesExtraction is the deterministic linearity
// check for every kernel kind: the recursion driven by the head
// projections of a white-noise vector equals ExtractAmplitudes of that
// vector. KernelRect has no tail, so its feedback list is empty.
func TestExtractedNoiseMatchesExtraction(t *testing.T) {
	kernels := []signal.Kernel{
		{Kind: signal.KernelRect, SupportCycles: 3},
		{Kind: signal.KernelExp, Theta: 2, SupportCycles: 3},
		signal.DefaultKernel(),
		{Kind: signal.KernelSinExp, Theta: 2.5, Period: 0.3, SupportCycles: 4},
	}
	for _, k := range kernels {
		for _, spc := range []int{2, 7, 16} {
			checkNoiseLinearity(t, whiteNoise(int64(spc), 500*spc), spc, k, 1e-12)
		}
	}
	rect, err := NewExtractedNoise(16, kernels[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(rect.fb) != 0 {
		t.Errorf("rect kernel has %d feedback taps, want 0", len(rect.fb))
	}
	if _, err := NewExtractedNoise(16, signal.Kernel{Kind: signal.KernelExp}); err == nil {
		t.Error("bad kernel accepted")
	}
}

// TestExtractedNoiseStatistics is the seeded distribution check: noise
// drawn per cycle has the variance and lag-1 covariance of
// ExtractAmplitudes applied to σ-white analog noise, for the default
// kernel (nearly white: lag-1 correlation about −0.02) and a slow
// exponential whose tails make the extracted noise strongly correlated.
// With 200k cycles per side the standard error of either estimate is
// about 0.003 variances, so the tolerances (3% of the variance, 0.015
// variances on the covariance) sit several standard errors out.
func TestExtractedNoiseStatistics(t *testing.T) {
	const (
		spc    = 16
		cycles = 200_000
		std    = 0.02
	)
	moments := func(e []float64) (v, c1 float64) {
		for n := range e {
			v += e[n] * e[n]
			if n > 0 {
				c1 += e[n] * e[n-1]
			}
		}
		return v / float64(len(e)), c1 / float64(len(e)-1)
	}
	for _, k := range []signal.Kernel{signal.DefaultKernel(), {Kind: signal.KernelExp, Theta: 1, SupportCycles: 3}} {
		y := whiteNoise(1, cycles*spc)
		for i := range y {
			y[i] *= std
		}
		ref, err := ExtractAmplitudes(y, spc, k)
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewExtractedNoise(spc, k)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, cycles)
		f.AddTo(got, std, rand.New(rand.NewSource(2)))
		rv, rc := moments(ref)
		gv, gc := moments(got)
		t.Logf("%v: variance %.4g vs %.4g (ratio %.4f); lag-1 correlation %.4f vs %.4f", k, gv, rv, gv/rv, gc/gv, rc/rv)
		if math.Abs(gv/rv-1) > 0.03 {
			t.Errorf("%v: variance %g, extraction of white noise gives %g", k, gv, rv)
		}
		if math.Abs(gc-rc) > 0.015*rv {
			t.Errorf("%v: lag-1 covariance %g, extraction of white noise gives %g", k, gc, rc)
		}
	}
}

// TestExtractedNoiseDoesNotAllocate pins the campaign's per-trace noise
// step, reseed included, at zero allocations.
func TestExtractedNoiseDoesNotAllocate(t *testing.T) {
	f, err := NewExtractedNoise(16, signal.DefaultKernel())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(0))
	amp := make([]float64, 2000)
	seed := int64(0)
	allocs := testing.AllocsPerRun(50, func() {
		rng.Seed(seed)
		f.AddTo(amp, 0.02, rng)
		seed++
	})
	if allocs > 0 {
		t.Errorf("AddTo allocates %.1f times per run, want 0", allocs)
	}
}

// FuzzExtractedNoiseLinearity checks the recursion against
// ExtractAmplitudes over random analog rates, kernel kinds and
// parameters.
func FuzzExtractedNoiseLinearity(f *testing.F) {
	f.Add(uint8(16), uint8(2), 4.0, 0.25, uint8(3), int64(1), uint16(200))
	f.Add(uint8(2), uint8(0), 0.0, 0.0, uint8(1), int64(2), uint16(50))
	f.Add(uint8(9), uint8(1), 0.7, 0.0, uint8(4), int64(3), uint16(300))
	f.Add(uint8(31), uint8(2), 1.0, 0.6, uint8(2), int64(4), uint16(64))
	f.Fuzz(func(t *testing.T, spc, kind uint8, theta, period float64, support uint8, seed int64, cycles uint16) {
		s := 2 + int(spc%31)
		k := signal.Kernel{
			Kind:          signal.KernelKind(kind % 3),
			Theta:         theta,
			Period:        period,
			SupportCycles: 1 + int(support%4),
		}
		y := whiteNoise(seed, (1+int(cycles%400))*s)
		_, werr := ExtractAmplitudes(y, s, k)
		_, nerr := NewExtractedNoise(s, k)
		if (werr == nil) != (nerr == nil) {
			t.Fatalf("%v spc %d: ExtractAmplitudes err %v, NewExtractedNoise err %v", k, s, werr, nerr)
		}
		if werr != nil {
			return
		}
		checkNoiseLinearity(t, y, s, k, 1e-9)
	})
}
