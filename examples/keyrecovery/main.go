// keyrecovery turns EMSim around: instead of defending, it plays the
// attacker, using the trained model as a *template generator*. A victim
// device runs an S-box lookup keyed with a secret byte; the attacker
// captures noisy EM traces for known plaintexts, simulates the same
// gadget for every candidate key, and picks the candidate whose simulated
// signals best explain the measurements. This is the flip side of the
// paper's leakage-assessment story: if the simulator is accurate enough
// to assess leakage, it is accurate enough to exploit it.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sort"

	"emsim"
	"emsim/internal/aes"
	"emsim/internal/asm"
	"emsim/internal/core"
	"emsim/internal/isa"
)

// gadget builds the victim program: t5 = sbox[pt ^ key]. Both the lookup
// address and the loaded value depend on the secret.
func gadget(pt, key byte) []uint32 {
	b := asm.NewBuilder()
	b.Nop(6)
	b.La(isa.S0, "sbox")
	b.I(isa.Addi(isa.T1, isa.Zero, int32(pt)))
	b.I(isa.Addi(isa.T2, isa.Zero, int32(key)))
	b.Nop(4)
	// The lookup runs several times per invocation (as it would inside a
	// real cipher's rounds). Between lookups the involved latches are
	// driven back to fixed values (a zeroing XOR and a constant-address
	// load), so every iteration produces a fresh set of data-dependent
	// transitions instead of latching the same values silently.
	for i := 0; i < 8; i++ {
		b.I(isa.Xor(isa.T3, isa.T1, isa.T2)) // EX result: 0 -> pt^key
		b.I(isa.Add(isa.T4, isa.S0, isa.T3))
		b.I(isa.Lbu(isa.T5, isa.T4, 0)) // MEM data: S[0] -> S[pt^key]
		b.Nop(2)
		b.I(isa.Xor(isa.T3, isa.T3, isa.T3)) // EX result back to 0
		b.I(isa.Lbu(isa.T6, isa.S0, 0))      // MEM data back to S[0]
		b.Nop(3)
	}
	b.Nop(4)
	b.I(isa.Ebreak())
	b.Label("sbox")
	for i := 0; i < 256; i += 4 {
		b.Word(uint32(aes.SBox(byte(i))) | uint32(aes.SBox(byte(i+1)))<<8 |
			uint32(aes.SBox(byte(i+2)))<<16 | uint32(aes.SBox(byte(i+3)))<<24)
	}
	return b.MustAssemble().Words
}

func main() {
	const secret byte = 0x3A // known only to the "victim" device below
	const nTraces = 48

	dev := emsim.NewDevice(emsim.DefaultDeviceOptions())
	fmt.Println("training the attacker's model (public knowledge: the")
	fmt.Println("microarchitecture and a profiling device)...")
	// The attacker invests in a rich activity model: template resolution
	// is bounded by how many transition bits the regression keeps.
	model, err := emsim.Train(dev, emsim.TrainOptions{MaxActivityBits: 160})
	if err != nil {
		log.Fatal(err)
	}
	spc := model.SamplesPerCycle
	cfg := dev.Options().CPU

	// Victim phase: capture noisy traces for known random plaintexts.
	rng := rand.New(rand.NewSource(7))
	fmt.Printf("\ncapturing %d traces from the victim (8 captures averaged each)...\n", nTraces)
	type capture struct {
		pt   byte
		amps []float64 // per-cycle amplitudes extracted from the raw trace
	}
	var caps []capture
	for i := 0; i < nTraces; i++ {
		pt := byte(rng.Intn(256))
		_, sig, err := dev.MeasureAveraged(gadget(pt, secret), 8)
		if err != nil {
			log.Fatal(err)
		}
		amps, err := core.ExtractAmplitudes(sig, spc, model.Kernel)
		if err != nil {
			log.Fatal(err)
		}
		caps = append(caps, capture{pt: pt, amps: amps})
	}

	// Attack phase: for each candidate key, simulate each trace's gadget
	// and accumulate the squared amplitude distance. The templates are
	// noiseless, so they need no rendering and re-extraction: the
	// 256×nTraces simulations stream through one Session straight into a
	// recycled per-cycle amplitude buffer — exactly the campaign shape
	// the streaming pipeline exists for.
	fmt.Println("matching against simulated templates for all 256 candidates...")
	sess, err := emsim.NewSession(model, cfg)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	scores := make([]float64, 256)
	var pred []float64
	for g := 0; g < 256; g++ {
		for _, cp := range caps {
			pred, err = sess.AmplitudesInto(ctx, pred, gadget(cp.pt, byte(g)))
			if err != nil {
				log.Fatal(err)
			}
			n := len(pred)
			if len(cp.amps) < n {
				n = len(cp.amps)
			}
			for c := 0; c < n; c++ {
				d := cp.amps[c] - pred[c]
				scores[g] += d * d
			}
		}
	}

	// Rank candidates by ascending distance.
	order := make([]int, 256)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return scores[order[a]] < scores[order[b]] })

	fmt.Println("\ntop candidates (lower distance = better explanation):")
	for i := 0; i < 5; i++ {
		g := order[i]
		tag := ""
		if byte(g) == secret {
			tag = "  <-- the secret"
		}
		fmt.Printf("  #%d  key=0x%02X  distance %.3f%s\n", i+1, g, scores[g], tag)
	}
	rank := 0
	for i, g := range order {
		if byte(g) == secret {
			rank = i + 1
		}
	}
	switch {
	case rank == 1:
		fmt.Printf("\nkey byte RECOVERED outright from %d traces of simulated templates.\n", nTraces)
	case rank <= 4:
		fmt.Printf("\nkey space reduced from 256 to %d candidates (secret ranked #%d) —\n", rank, rank)
		fmt.Println("a brute-force pass over the survivors completes the attack. The")
		fmt.Println("residual ambiguity sits in bits whose transition weights the model's")
		fmt.Println("stepwise regression pruned: template resolution is bounded by model")
		fmt.Println("fidelity, which is exactly the paper's leakage-assessment premise")
		fmt.Println("read in reverse.")
	default:
		fmt.Printf("\nsecret ranked #%d of 256 — more traces would close the gap.\n", rank)
	}
}
