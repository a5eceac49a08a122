package core

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"emsim/internal/cpu"
	"emsim/internal/signal"
)

// referenceContribution is the plain ordered loop the indexed
// contribution replaced: test every selected bit, add its coefficient
// in Selected order.
func referenceContribution(m *StageActivityModel, st *cpu.StageTrace) float64 {
	s := 0.0
	for i, bit := range m.Selected {
		if st.FlipBit(bit) {
			s += m.Coef[i]
		}
	}
	return s
}

// randomActivityModel draws n distinct bits of stage s in random
// (selection) order with signed coefficients spread over many binades,
// so any change to the summation order shows up in the rounding.
func randomActivityModel(rng *rand.Rand, s cpu.Stage, n int) StageActivityModel {
	am := StageActivityModel{Candidates: cpu.FeatureBits(s)}
	for _, bit := range rng.Perm(cpu.FeatureBits(s))[:n] {
		am.Selected = append(am.Selected, bit)
		am.Coef = append(am.Coef, rng.NormFloat64()*math.Ldexp(1, rng.Intn(60)-30))
	}
	return am
}

// FuzzActivityContribution pins the indexed contribution to the ordered
// reference loop bit for bit, over random selections, coefficients and
// flip patterns of every stage width.
func FuzzActivityContribution(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0), uint32(0), uint32(0), uint32(0))                             // empty model
	f.Add(int64(2), uint8(2), uint8(96), uint32(0xFFFFFFFF), uint32(0xFFFFFFFF), uint32(0xFFFFFFFF)) // all 96 bits, all flipped
	f.Add(int64(3), uint8(1), uint8(96), uint32(0xA5A5A5A5), uint32(0x0F0F0F0F), uint32(0x80000001)) // all ID bits, mixed flips
	f.Add(int64(4), uint8(0), uint8(17), uint32(0xDEADBEEF), uint32(0x12345678), uint32(0))
	f.Add(int64(5), uint8(4), uint8(64), uint32(0xFFFF0000), uint32(0x0000FFFF), uint32(0xFFFFFFFF))
	f.Fuzz(func(t *testing.T, seed int64, stage, n uint8, f0, f1, f2 uint32) {
		s := cpu.Stage(int(stage) % cpu.NumStages)
		am := randomActivityModel(rand.New(rand.NewSource(seed)), s, int(n)%(cpu.FeatureBits(s)+1))
		if err := am.buildIndex(s); err != nil {
			t.Fatal(err)
		}
		st := &cpu.StageTrace{Flip: [cpu.MaxLatchWords]uint32{f0, f1, f2}}
		got, want := am.contribution(st), referenceContribution(&am, st)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("stage %v, %d bits: contribution %v (%#x), reference %v (%#x)",
				s, len(am.Selected), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// TestActivityIndexOnEveryModelPath checks that every way of obtaining a
// model — training, loading, and the two copying adjusters — yields
// stages whose index matches their Selected list and evaluates exactly
// like the reference loop.
func TestActivityIndexOnEveryModelPath(t *testing.T) {
	trained, _ := testModel(t)
	var buf bytes.Buffer
	if err := trained.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	paths := []struct {
		name string
		m    *Model
	}{
		{"Train", trained},
		{"LoadModel", loaded},
		{"WithOptions", trained.WithOptions(ModelOptions{PerStageSources: true, Activity: ActivityLR})},
		{"WithBeta", loaded.WithBeta([cpu.NumStages]float64{1, 0.5, 2, 1, 0.25})},
	}
	rng := rand.New(rand.NewSource(11))
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			selected := 0
			for s := cpu.Stage(0); s < cpu.NumStages; s++ {
				am := &p.m.Activity[s]
				selected += len(am.Selected)
				if am.indexed != len(am.Selected) {
					t.Fatalf("stage %v: index built for %d bits, model selects %d", s, am.indexed, len(am.Selected))
				}
				for i := 0; i < 200; i++ {
					st := &cpu.StageTrace{Flip: [cpu.MaxLatchWords]uint32{rng.Uint32(), rng.Uint32(), rng.Uint32()}}
					got, want := am.contribution(st), referenceContribution(am, st)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("stage %v: contribution %v, reference %v", s, got, want)
					}
				}
			}
			if selected == 0 {
				t.Fatal("the model selects no activity bits; the check is vacuous")
			}
		})
	}
}

// TestUnindexedActivityModelPanics: a non-empty Selected list without
// its index must never evaluate to a silent zero.
func TestUnindexedActivityModelPanics(t *testing.T) {
	am := StageActivityModel{Selected: []int{3}, Coef: []float64{1}}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "index") {
			t.Errorf("unindexed contribution recovered %v, want the missing-index panic", r)
		}
	}()
	st := &cpu.StageTrace{Flip: [cpu.MaxLatchWords]uint32{1 << 3}}
	t.Errorf("unindexed contribution = %v, want a panic", am.contribution(st))
}

// TestValidateRejectsNonFiniteParameters covers the non-finite values a
// file cannot carry but a model built in memory can: each must be an
// error from validate, never a panic or a silently poisoned model.
func TestValidateRejectsNonFiniteParameters(t *testing.T) {
	good := func() *Model {
		m := &Model{SamplesPerCycle: 16, Kernel: signal.DefaultKernel()}
		m.Activity[cpu.EX] = StageActivityModel{Selected: []int{4, 70}, Coef: []float64{0.5, -1}}
		return m
	}
	if err := good().validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for name, spoil := range map[string]func(m *Model){
		"coef":             func(m *Model) { m.Activity[cpu.EX].Coef[1] = nan },
		"amp":              func(m *Model) { m.Amp[ampKeyNOP][cpu.MEM] = inf },
		"miso":             func(m *Model) { m.MISO[cpu.WB] = -inf },
		"miso intercept":   func(m *Model) { m.MISOIntercept = nan },
		"single intercept": func(m *Model) { m.SingleIntercept = inf },
		"single m":         func(m *Model) { m.SingleM = nan },
		"background":       func(m *Model) { m.Background = -inf },
		"beta":             func(m *Model) { m.Beta = &[cpu.NumStages]float64{1, 1, nan, 1, 1} },
	} {
		t.Run(name, func(t *testing.T) {
			m := good()
			spoil(m)
			if err := m.validate(); err == nil {
				t.Error("non-finite parameter accepted")
			}
		})
	}
}
