package defend

import (
	"context"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"emsim/internal/aes"
	"emsim/internal/core"
	"emsim/internal/cpu"
	"emsim/internal/device"
)

var (
	modelOnce sync.Once
	testModel *core.Model
	modelErr  error
)

// defendTestModel trains one small deterministic model for the package.
func defendTestModel(t *testing.T) *core.Model {
	t.Helper()
	modelOnce.Do(func() {
		dev := device.MustNew(device.DefaultOptions())
		testModel, modelErr = core.Train(dev, core.TrainOptions{
			Runs:                3,
			InstancesPerCluster: 10,
			MixedPrograms:       2,
			MixedLength:         200,
			Seed:                7,
		})
	})
	if modelErr != nil {
		t.Fatalf("training failed: %v", modelErr)
	}
	return testModel
}

func TestParseSpec(t *testing.T) {
	ok := []struct{ in, want string }{
		{"shuffle", "shuffle"},
		{"shuffle:window=8", "shuffle:window=8"},
		{"dummy:rate=0.3", "dummy:rate=0.3"},
		{"jitter:region=32,rate=0.2", "jitter:rate=0.2,region=32"}, // params sort
	}
	for _, tc := range ok {
		sp, err := ParseSpec(tc.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
			continue
		}
		if got := sp.String(); got != tc.want {
			t.Errorf("ParseSpec(%q).String() = %q, want %q", tc.in, got, tc.want)
		}
		cm, err := sp.New()
		if err != nil {
			t.Errorf("Spec(%q).New(): %v", tc.in, err)
		} else if cm.Name() != sp.Name {
			t.Errorf("Spec(%q).New().Name() = %q", tc.in, cm.Name())
		}
	}
	bad := []string{
		"",
		"mask",                  // unknown name
		"shuffle:window=banana", // unparsable value
		"shuffle:rate=0.5",      // unknown parameter for shuffle
		"dummy:rate=0",          // out of range
		"dummy:rate=1.5",        // out of range
		"jitter:rate=0.5",       // out of range (cap 0.45)
		"jitter:region=0",       // out of range
		"shuffle:window",        // malformed key-value
	}
	for _, in := range bad {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted invalid input", in)
		}
	}
}

// runDefended simulates one defended trace and returns the signal plus
// the ciphertext the defended execution produced.
func runDefended(t *testing.T, cm Countermeasure, seed, index int64) ([]float64, [16]byte, cpu.Stats) {
	t.Helper()
	m := defendTestModel(t)
	s, err := NewSession(m, cpu.DefaultConfig(), cm, seed)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := aes.BuildProgram(DefaultKey, DefaultFixed)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := s.SimulateTraceInto(context.Background(), nil, index, prog.Words)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]float64(nil), sig...)
	return out, prog.Output(s.Core().CPU().Memory().ReadWord), s.Stats()
}

func TestInjectorCountermeasures(t *testing.T) {
	want := aes.Reference(DefaultKey, DefaultFixed)
	_, baseOut, baseStats := runDefended(t, nil, 1, 0)
	if baseOut != want {
		t.Fatalf("baseline ciphertext %x != reference %x", baseOut, want)
	}
	for _, name := range []string{"dummy", "jitter", "shuffle"} {
		t.Run(name, func(t *testing.T) {
			sp, err := ParseSpec(name)
			if err != nil {
				t.Fatal(err)
			}
			build := func() Countermeasure {
				cm, err := sp.New()
				if err != nil {
					t.Fatal(err)
				}
				return cm
			}
			// Same seed and index: byte-identical signals, correct AES output.
			sigA, outA, stA := runDefended(t, build(), 1, 0)
			sigB, outB, _ := runDefended(t, build(), 1, 0)
			if outA != want || outB != want {
				t.Fatalf("defended ciphertext %x / %x, want %x", outA, outB, want)
			}
			if len(sigA) != len(sigB) {
				t.Fatalf("same-seed signal lengths differ: %d vs %d", len(sigA), len(sigB))
			}
			for i := range sigA {
				if sigA[i] != sigB[i] {
					t.Fatalf("same-seed signals differ at sample %d", i)
				}
			}
			// Different index: a different randomization.
			sigC, outC, _ := runDefended(t, build(), 1, 1)
			if outC != want {
				t.Fatalf("defended ciphertext %x, want %x", outC, want)
			}
			if len(sigC) == len(sigA) {
				same := true
				for i := range sigC {
					if sigC[i] != sigA[i] {
						same = false
						break
					}
				}
				if same {
					t.Fatal("different trace indices produced identical signals")
				}
			}
			// Injector-based defenses must show up in the stats and cost
			// cycles.
			if name != "shuffle" {
				if stA.Injected == 0 {
					t.Fatal("defended run reports zero injected slots")
				}
				if stA.Cycles <= baseStats.Cycles {
					t.Fatalf("defended run not slower: %d vs %d cycles", stA.Cycles, baseStats.Cycles)
				}
			}
		})
	}
}

func TestSessionBaselineMatchesCore(t *testing.T) {
	m := defendTestModel(t)
	prog, err := aes.BuildProgram(DefaultKey, DefaultFixed)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.NewSession(m, cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.SimulateProgram(prog.Words)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(m, cpu.DefaultConfig(), nil, 99)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.SimulateProgram(prog.Words)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("baseline defended session diverges from core.Session at sample %d", i)
		}
	}
}

// TestSessionAmplitudesMatchModel pins the defended amplitude path: for
// the baseline and for armed countermeasures it is bit-equal to
// Model.Amplitudes of the trace recorded on a separate core running the
// same armed image and injector, and it agrees with extracting the
// rendered SimulateTraceInto signal up to rounding.
func TestSessionAmplitudesMatchModel(t *testing.T) {
	m := defendTestModel(t)
	cfg := cpu.DefaultConfig()
	ctx := context.Background()
	const seed = 13
	for _, name := range []string{"", "shuffle", "dummy"} {
		var cm, ref Countermeasure
		if name != "" {
			var err error
			if cm, err = mustSpec(t, name).New(); err != nil {
				t.Fatal(err)
			}
			if ref, err = mustSpec(t, name).New(); err != nil {
				t.Fatal(err)
			}
		}
		s, err := NewSession(m, cfg, cm, seed)
		if err != nil {
			t.Fatal(err)
		}
		c := cpu.MustNew(cfg)
		var amps []float64
		for i := int64(0); i < 4; i++ {
			pt := seededPlaintext(uint64(i))
			prog, err := aes.BuildProgram(DefaultKey, pt)
			if err != nil {
				t.Fatal(err)
			}
			amps, err = s.AmplitudesInto(ctx, amps, i, prog.Words)
			if err != nil {
				t.Fatal(err)
			}
			run := prog.Words
			c.SetFetchInjector(nil)
			if ref != nil {
				armed, err := ref.Arm(prog.Words, stream(seed, laneArm, i))
				if err != nil {
					t.Fatal(err)
				}
				run = armed.Words
				c.SetFetchInjector(armed.Injector)
			}
			tr, err := c.RunProgram(run)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(amps, m.Amplitudes(tr)) {
				t.Fatalf("arm %q trace %d: AmplitudesInto differs from Model.Amplitudes of the recorded trace", name, i)
			}
			sig, err := s.SimulateTraceInto(ctx, nil, i, prog.Words)
			if err != nil {
				t.Fatal(err)
			}
			back, err := core.ExtractAmplitudes(sig, m.SamplesPerCycle, m.Kernel)
			if err != nil {
				t.Fatal(err)
			}
			for n := range amps {
				if math.Abs(back[n]-amps[n]) > 1e-9 {
					t.Fatalf("arm %q trace %d cycle %d: amplitude %v, extracted from the signal %v", name, i, n, amps[n], back[n])
				}
			}
		}
	}
}

func TestSessionStreamIndexing(t *testing.T) {
	m := defendTestModel(t)
	cm, err := NewDummy(0.2)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := aes.BuildProgram(DefaultKey, DefaultFixed)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(m, cpu.DefaultConfig(), cm, 5)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.SimulateProgram(prog.Words)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SimulateProgram(prog.Words); err != nil {
		t.Fatal(err)
	}
	s.ResetStream(0)
	replay, err := s.SimulateProgram(prog.Words)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(replay) {
		t.Fatalf("replayed trace length differs: %d vs %d", len(first), len(replay))
	}
	for i := range first {
		if first[i] != replay[i] {
			t.Fatalf("ResetStream replay diverges at sample %d", i)
		}
	}
}

func TestInjectorRemovedAfterRun(t *testing.T) {
	m := defendTestModel(t)
	cm, err := NewJitter(0.2, 16)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := aes.BuildProgram(DefaultKey, DefaultFixed)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(m, cpu.DefaultConfig(), cm, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SimulateTraceInto(context.Background(), nil, 0, prog.Words); err != nil {
		t.Fatal(err)
	}
	if inj := s.Stats().Injected; inj == 0 {
		t.Fatal("jitter run reports zero injected slots")
	}
	// The wrapped core session must be clean again: a direct run on it is
	// an undefended baseline.
	sig, err := s.Core().SimulateProgram(prog.Words)
	if err != nil {
		t.Fatal(err)
	}
	if inj := s.Stats().Injected; inj != 0 {
		t.Fatalf("injector leaked into a baseline run: %d injected slots", inj)
	}
	_ = sig
}

func TestEvaluateValidation(t *testing.T) {
	m := defendTestModel(t)
	ctx := context.Background()
	if _, err := Evaluate(ctx, Options{Defense: Spec{Name: "shuffle"}}); err == nil ||
		!strings.Contains(err.Error(), "model") {
		t.Errorf("missing model not rejected: %v", err)
	}
	if _, err := Evaluate(ctx, Options{Model: m}); err == nil {
		t.Error("missing defense not rejected")
	}
	if _, err := Evaluate(ctx, Options{Model: m, Defense: Spec{Name: "nope"}}); err == nil {
		t.Error("unknown defense not rejected")
	}
	if _, err := Evaluate(ctx, Options{Model: m, Defense: Spec{Name: "shuffle"}, NoiseStd: -1}); err == nil {
		t.Error("negative noise not rejected")
	}
	if _, err := Evaluate(ctx, Options{Model: m, Defense: Spec{Name: "shuffle"}, TVLATraces: 2}); err == nil {
		t.Error("tiny TVLA budget not rejected")
	}
}

// TestNoiseStdValidation pins the NoiseStd boundary: zero selects the
// default, and only a finite positive sigma is accepted. NaN and +Inf
// used to pass and yield a report with no detection.
func TestNoiseStdValidation(t *testing.T) {
	m := defendTestModel(t)
	cases := []struct {
		std  float64
		want float64 // 0: rejected
	}{
		{0, 0.02},
		{1e-3, 1e-3},
		{5, 5},
		{-1, 0},
		{math.Copysign(0, -1), 0.02},
		{math.NaN(), 0},
		{math.Inf(1), 0},
		{math.Inf(-1), 0},
	}
	for _, tc := range cases {
		o, err := Options{Model: m, Defense: Spec{Name: "shuffle"}, NoiseStd: tc.std}.withDefaults()
		if tc.want == 0 {
			if err == nil || !strings.Contains(err.Error(), "NoiseStd") {
				t.Errorf("NoiseStd %v: err %v, want a NoiseStd error", tc.std, err)
			}
			continue
		}
		if err != nil || o.NoiseStd != tc.want {
			t.Errorf("NoiseStd %v: got %v, %v; want %v", tc.std, o.NoiseStd, err, tc.want)
		}
	}
}
