// Command emsim-leakage runs the paper's §VI-A leakage-assessment
// use-cases from the command line: TVLA (fixed-vs-random Welch t-test on
// AES-128) and SAVAT (instruction-pair signal availability, Table II),
// each from real device measurements, from purely simulated signals, or
// both side by side.
//
// Usage:
//
//	emsim-leakage -mode tvla [-traces 40] [-sim|-real]
//	emsim-leakage -mode savat [-a MUL -b NOP | -matrix]
//
// A trained model can be cached with -model file.json (written on first
// run, loaded afterwards), which makes repeat assessments start in
// milliseconds — the paper's "ship the board's parameters" workflow.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"emsim"
	"emsim/internal/core"
	"emsim/internal/device"
	"emsim/internal/leakage"
)

func main() {
	mode := flag.String("mode", "tvla", "assessment to run: tvla or savat")
	traces := flag.Int("traces", 40, "tvla: traces per group (fixed and random)")
	simOnly := flag.Bool("sim", false, "use only simulated signals")
	realOnly := flag.Bool("real", false, "use only device measurements")
	aName := flag.String("a", "MUL", "savat: instruction A (LDM,LDC,NOP,ADD,MUL,DIV)")
	bName := flag.String("b", "NOP", "savat: instruction B")
	matrix := flag.Bool("matrix", false, "savat: compute the full Table II matrix")
	perHalf := flag.Int("perhalf", 8, "savat: instructions per half period")
	periods := flag.Int("periods", 16, "savat: alternation periods")
	runs := flag.Int("runs", 10, "savat: measurement averaging runs")
	modelPath := flag.String("model", "", "cache the trained model in this file")
	seed := flag.Int64("seed", 1, "training and protocol seed")
	progress := flag.Bool("progress", false, "report per-phase training progress on stderr")
	trainWorkers := flag.Int("train-workers", 0, "training measurement workers (0 = GOMAXPROCS)")
	flag.Parse()

	if *simOnly && *realOnly {
		fatal(fmt.Errorf("-sim and -real are mutually exclusive"))
	}
	doReal, doSim := !*simOnly, !*realOnly

	dev := emsim.NewDevice(emsim.DefaultDeviceOptions())
	model := trainOrLoad(dev, *modelPath, *seed, doSim, *trainWorkers, *progress)

	switch *mode {
	case "tvla":
		runTVLA(dev, model, *traces, *seed, doReal, doSim)
	case "savat":
		runSavat(dev, model, *aName, *bName, *matrix, *perHalf, *periods, *runs, doReal, doSim)
	default:
		fatal(fmt.Errorf("unknown -mode %q (want tvla or savat)", *mode))
	}
}

// trainOrLoad returns a trained model, reusing the cache file when one is
// given. Training is skipped entirely for -real runs that never simulate.
func trainOrLoad(dev *emsim.Device, path string, seed int64, needed bool, workers int, progress bool) *emsim.Model {
	if !needed {
		return nil
	}
	opts := core.TrainOptions{Seed: seed, Workers: workers}
	if progress {
		opts.Progress = core.PrintProgress(os.Stderr)
	}
	m, err := core.LoadOrTrain(dev, path, opts, os.Stderr)
	if err != nil {
		fatal(err)
	}
	return m
}

func runTVLA(dev *emsim.Device, model *emsim.Model, traces int, seed int64, doReal, doSim bool) {
	key := [16]byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
		0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
	var fixed [16]byte
	copy(fixed[:], "tvla-fixed-input")

	build := func(input [16]byte) ([]uint32, error) {
		prog, err := emsim.BuildAES(key, input)
		if err != nil {
			return nil, err
		}
		return prog.Words, nil
	}
	realSrc := emsim.TraceSource(dev.CaptureSource(build))

	fmt.Printf("TVLA on AES-128, %d traces per group, threshold |t| > 4.5\n\n", traces)
	if doReal {
		report("real measurements", mustTVLA(realSrc, fixed, seed, traces))
	}
	if doSim {
		// One Session serves the whole campaign: 2×traces AES encryptions
		// through a resettable core and reused buffers.
		sess, err := emsim.NewSession(model, dev.Options().CPU)
		if err != nil {
			fatal(err)
		}
		noise := rand.New(rand.NewSource(seed + 99))
		noiseStd := dev.Options().NoiseStd
		simSrc := leakage.SimSource(sess, build, func() float64 { return noiseStd * noise.NormFloat64() })
		report("simulated signals", mustTVLA(simSrc, fixed, seed, traces))
	}
}

func mustTVLA(src emsim.TraceSource, fixed [16]byte, seed int64, traces int) *emsim.TVLAResult {
	res, err := emsim.TVLA(src, fixed, rand.New(rand.NewSource(seed)), traces)
	if err != nil {
		fatal(err)
	}
	return res
}

func report(label string, r *emsim.TVLAResult) {
	verdict := "PASS (no first-order leakage detected)"
	if r.Leaks() {
		verdict = fmt.Sprintf("LEAKS at %d sample points", len(r.LeakyPoints))
	}
	fmt.Printf("%-20s max|t| = %6.1f  %s\n", label+":", r.MaxAbsT, verdict)
}

func runSavat(dev *emsim.Device, model *emsim.Model, aName, bName string,
	matrix bool, perHalf, periods, runs int, doReal, doSim bool) {
	events := []emsim.SavatInst{emsim.LDM, emsim.LDC, emsim.NOP, emsim.ADD, emsim.MUL, emsim.DIV}
	spc := dev.SamplesPerCycle()

	var sess *emsim.Session
	if doSim {
		var err error
		if sess, err = emsim.NewSession(model, dev.Options().CPU); err != nil {
			fatal(err)
		}
	}

	one := func(a, b emsim.SavatInst) (realV, simV float64) {
		words, err := emsim.SavatProgram(a, b, perHalf, periods)
		if err != nil {
			fatal(err)
		}
		if doReal {
			tr, sig, err := dev.MeasureAveraged(words, runs)
			if err != nil {
				fatal(err)
			}
			if realV, err = emsim.Savat(sig, spc, len(tr), periods); err != nil {
				fatal(err)
			}
		}
		if doSim {
			ssig, err := sess.SimulateProgram(words)
			if err != nil {
				fatal(err)
			}
			if simV, err = emsim.Savat(ssig, spc, sess.Cycles(), periods); err != nil {
				fatal(err)
			}
		}
		return realV, simV
	}

	if !matrix {
		a, err := parseSavatInst(aName)
		if err != nil {
			fatal(err)
		}
		b, err := parseSavatInst(bName)
		if err != nil {
			fatal(err)
		}
		realV, simV := one(a, b)
		fmt.Printf("SAVAT(%s, %s):", a, b)
		if doReal {
			fmt.Printf("  real %.4f", realV)
		}
		if doSim {
			fmt.Printf("  simulated %.4f", simV)
		}
		fmt.Println()
		return
	}

	printMatrix := func(label string, pick func(r, s float64) float64) {
		fmt.Printf("SAVAT matrix (%s):\n      ", label)
		for _, e := range events {
			fmt.Printf("%8s", e)
		}
		fmt.Println()
		for _, a := range events {
			fmt.Printf("%5s ", a)
			for _, b := range events {
				r, s := one(a, b)
				fmt.Printf("%8.3f", pick(r, s))
			}
			fmt.Println()
		}
		fmt.Println()
	}
	if doReal {
		printMatrix("real measurements", func(r, _ float64) float64 { return r })
	}
	if doSim {
		printMatrix("simulated", func(_, s float64) float64 { return s })
	}
}

func parseSavatInst(name string) (emsim.SavatInst, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "LDM":
		return emsim.LDM, nil
	case "LDC":
		return emsim.LDC, nil
	case "NOP":
		return emsim.NOP, nil
	case "ADD":
		return emsim.ADD, nil
	case "MUL":
		return emsim.MUL, nil
	case "DIV":
		return emsim.DIV, nil
	}
	return 0, fmt.Errorf("unknown SAVAT instruction %q (want LDM, LDC, NOP, ADD, MUL or DIV)", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "emsim-leakage:", err)
	os.Exit(1)
}

// Interface assertions: the CLI drives exactly the public leakage surface.
var (
	_ = leakage.SavatMatrix
	_ = device.DefaultOptions
)
