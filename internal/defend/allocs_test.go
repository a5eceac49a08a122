package defend

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"emsim/internal/aes"
	"emsim/internal/cpu"
)

var allocSink cpu.Injection

// TestInjectorsDoNotAllocate pins the //emsim:noalloc contract of the
// per-fetch-slot Inject hot paths.
func TestInjectorsDoNotAllocate(t *testing.T) {
	var d dummyInjector
	d.reset(1, 0.3)
	var j jitterInjector
	j.reset(1, 0.2, 16)
	allocs := testing.AllocsPerRun(100, func() {
		for c := 0; c < 64; c++ {
			allocSink = d.Inject(c, 0)
			allocSink = j.Inject(c, 0)
		}
	})
	if allocs > 0 {
		t.Errorf("injectors allocate %.1f times per run, want 0", allocs)
	}
}

// TestDefendedSimulateSteadyStateAllocs pins the steady-state
// allocation count of a defended trace at zero for every
// countermeasure: arming reuses scratch, injection is pre-encoded, and
// the signal buffer is recycled across traces.
func TestDefendedSimulateSteadyStateAllocs(t *testing.T) {
	m := defendTestModel(t)
	prog, err := aes.BuildProgram(DefaultKey, DefaultFixed)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, name := range []string{"shuffle", "dummy", "jitter"} {
		t.Run(name, func(t *testing.T) {
			sp, err := ParseSpec(name)
			if err != nil {
				t.Fatal(err)
			}
			cm, err := sp.New()
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSession(m, cpu.DefaultConfig(), cm, 1)
			if err != nil {
				t.Fatal(err)
			}
			var buf []float64
			index := int64(0)
			run := func() {
				sig, err := s.SimulateTraceInto(ctx, buf, index, prog.Words)
				if err != nil {
					t.Fatal(err)
				}
				buf = sig[:0]
				index++
			}
			// Warm up: grow the signal buffer and the countermeasure
			// scratch to their steady-state capacity.
			for i := 0; i < 3; i++ {
				run()
			}
			allocs := testing.AllocsPerRun(10, run)
			if allocs > 0 {
				t.Errorf("defended trace allocates %.1f times per run, want 0", allocs)
			}
		})
	}
}

// TestAddNoiseReseedsWithoutAllocating pins the per-trace noise step:
// reseeding a worker's generator allocates nothing and reproduces, bit
// for bit, the stream of a generator freshly built from the same seed.
func TestAddNoiseReseedsWithoutAllocating(t *testing.T) {
	const seed, std = 7, 0.3
	rng := rand.New(rand.NewSource(0))
	sig := make([]float64, 64)
	for i := 0; i < 4; i++ {
		for k := range sig {
			sig[k] = float64(k)
		}
		addNoise(rng, sig, std, seed, i)
		fresh := rand.New(rand.NewSource(int64(stream(seed, laneNoise, int64(i)))))
		for k := range sig {
			if want := float64(k) + std*fresh.NormFloat64(); math.Float64bits(sig[k]) != math.Float64bits(want) {
				t.Fatalf("trace %d sample %d: %v, want %v", i, k, sig[k], want)
			}
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		addNoise(rng, sig, std, seed, i)
		i++
	})
	if allocs > 0 {
		t.Errorf("addNoise allocates %.1f times per run, want 0", allocs)
	}
}
