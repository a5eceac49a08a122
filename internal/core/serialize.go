package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"emsim/internal/cpu"
	"emsim/internal/device"
)

// The paper envisions trained models being shipped "as a library (similar
// to that of for other properties such as power, timing)" (§V-C): train
// once per board, distribute the parameters, simulate everywhere. Save
// and LoadModel implement that with a stable JSON encoding.

// modelFileVersion guards the on-disk format.
const modelFileVersion = 1

type modelFile struct {
	Version int    `json:"version"`
	Model   *Model `json:"model"`
}

// Save writes the trained model to w as JSON.
func (m *Model) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(modelFile{Version: modelFileVersion, Model: m})
}

// SaveFile writes the model to path atomically: it writes a temporary
// file in the same directory and renames it over path, so a failed save
// leaves no partial file and any existing model untouched.
func (m *Model) SaveFile(path string) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close() // may close twice; only the first error matters
			os.Remove(f.Name())
		}
	}()
	// CreateTemp makes the file private; a model is as shareable as a
	// file from os.Create.
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = m.Save(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// LoadModel reads a model previously written with Save and validates its
// invariants.
func LoadModel(r io.Reader) (*Model, error) {
	var mf modelFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&mf); err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	if mf.Version != modelFileVersion {
		return nil, fmt.Errorf("core: model file version %d, want %d", mf.Version, modelFileVersion)
	}
	m := mf.Model
	if m == nil {
		return nil, fmt.Errorf("core: model file has no model")
	}
	if m.SamplesPerCycle < 1 {
		return nil, fmt.Errorf("core: loaded model has invalid SamplesPerCycle %d", m.SamplesPerCycle)
	}
	if _, err := m.Kernel.Taps(m.SamplesPerCycle); err != nil {
		return nil, fmt.Errorf("core: loaded model has an unusable kernel: %w", err)
	}
	for s := cpu.Stage(0); s < cpu.NumStages; s++ {
		am := &m.Activity[s]
		if len(am.Selected) != len(am.Coef) {
			return nil, fmt.Errorf("core: stage %v activity model: %d bits vs %d coefficients",
				s, len(am.Selected), len(am.Coef))
		}
		for _, bit := range am.Selected {
			if bit < 0 || bit >= cpu.FeatureBits(s) {
				return nil, fmt.Errorf("core: stage %v activity bit %d out of range", s, bit)
			}
		}
	}
	return m, nil
}

// LoadModelFile reads a model from path.
func LoadModelFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadModel(f)
}

// LoadOrTrain returns the model cached at path, or trains one against
// dev with opts and saves it there when the file does not exist. An
// empty path trains without caching. A file that exists but does not
// load (corrupt, truncated, another format version) is an error: it is
// never silently retrained and overwritten. Status lines go to log.
func LoadOrTrain(dev *device.Device, path string, opts TrainOptions, log io.Writer) (*Model, error) {
	if path != "" {
		m, err := LoadModelFile(path)
		if err == nil {
			fmt.Fprintf(log, "loaded trained model from %s\n", path)
			return m, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%s: %w (remove it to retrain)", path, err)
		}
	}
	fmt.Fprintln(log, "training EMSim against the reference device...")
	m, err := Train(dev, opts)
	if err != nil {
		return nil, err
	}
	if path != "" {
		if err := m.SaveFile(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "saved trained model to %s\n", path)
	}
	return m, nil
}

// PrintProgress returns a TrainOptions.Progress callback that streams
// training-phase progress to w: one line when a phase announces itself,
// one when its last measurement lands.
func PrintProgress(w io.Writer) func(Progress) {
	return func(p Progress) {
		switch {
		case p.Done == 0:
			fmt.Fprintf(w, "  phase %d/%d %-10s %d measurements...\n",
				int(p.Phase)+1, NumPhases, p.Phase, p.Total)
		case p.Done == p.Total:
			fmt.Fprintf(w, "  phase %d/%d %-10s done in %s\n",
				int(p.Phase)+1, NumPhases, p.Phase, p.Elapsed.Round(time.Millisecond))
		}
	}
}
