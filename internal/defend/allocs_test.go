package defend

import (
	"context"
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
// countermeasure, for both the rendered signal and the amplitude run
// campaigns use: arming reuses scratch, injection is pre-encoded, and
// the output buffer is recycled across traces.
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
			var buf, amps []float64
			index := int64(0)
			run := func() {
				sig, err := s.SimulateTraceInto(ctx, buf, index, prog.Words)
				if err != nil {
					t.Fatal(err)
				}
				buf = sig[:0]
				index++
			}
			runAmps := func() {
				if amps, err = s.AmplitudesInto(ctx, amps, index, prog.Words); err != nil {
					t.Fatal(err)
				}
				index++
			}
			// Warm up: grow the output buffers and the countermeasure
			// scratch to their steady-state capacity.
			for i := 0; i < 3; i++ {
				run()
				runAmps()
			}
			if allocs := testing.AllocsPerRun(10, run); allocs > 0 {
				t.Errorf("defended trace allocates %.1f times per run, want 0", allocs)
			}
			if allocs := testing.AllocsPerRun(10, runAmps); allocs > 0 {
				t.Errorf("defended amplitude trace allocates %.1f times per run, want 0", allocs)
			}
		})
	}
}
