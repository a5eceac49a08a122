package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"emsim/internal/device"
)

// saved serializes m for byte comparison.
func saved(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// dirNames lists a directory's entries.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func TestLoadOrTrainCachesModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.json")
	dev := device.MustNew(device.DefaultOptions())
	var events atomic.Int64
	opts := smallCampaign()
	opts.Progress = func(Progress) { events.Add(1) }

	var log bytes.Buffer
	trained, err := LoadOrTrain(dev, path, opts, &log)
	if err != nil {
		t.Fatal(err)
	}
	if events.Load() == 0 {
		t.Error("a missing cache file did not train")
	}
	if !strings.Contains(log.String(), "training EMSim") || !strings.Contains(log.String(), "saved trained model to "+path) {
		t.Errorf("first call logged %q, want training and saved lines", log.String())
	}

	events.Store(0)
	log.Reset()
	loaded, err := LoadOrTrain(dev, path, opts, &log)
	if err != nil {
		t.Fatal(err)
	}
	if n := events.Load(); n != 0 {
		t.Errorf("a cached model retrained (%d progress events)", n)
	}
	if want := "loaded trained model from " + path + "\n"; log.String() != want {
		t.Errorf("second call logged %q, want %q", log.String(), want)
	}
	if !bytes.Equal(saved(t, trained), saved(t, loaded)) {
		t.Error("the cached model does not serialize byte-identically to the trained one")
	}
}

func TestLoadOrTrainRejectsBadFile(t *testing.T) {
	dev := device.MustNew(device.DefaultOptions())
	for name, content := range map[string]string{
		"garbage":   "\x00not a model at all",
		"truncated": `{"version": 1, "model": {"SamplesPerCycle": 4`,
		"version 2": `{"version": 2, "model": {}}`,
		"repeated activity bit": `{"version": 1, "model": {"SamplesPerCycle": 16,
			"Kernel": {"Kind": 2, "Theta": 2, "Period": 0.25, "SupportCycles": 3},
			"Activity": [{"Selected": [5, 5], "Coef": [1, 1]}, {}, {}, {}, {}]}}`,
		"overflowing intercept": `{"version": 1, "model": {"SamplesPerCycle": 16,
			"Kernel": {"Kind": 2, "Theta": 2, "Period": 0.25, "SupportCycles": 3},
			"MISOIntercept": -1e400}}`,
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "model.json")
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			var events atomic.Int64
			opts := smallCampaign()
			opts.Progress = func(Progress) { events.Add(1) }
			m, err := LoadOrTrain(dev, path, opts, &bytes.Buffer{})
			if err == nil || m != nil {
				t.Fatalf("LoadOrTrain = (%v, %v), want an error", m, err)
			}
			if !strings.Contains(err.Error(), path) {
				t.Errorf("error %q does not name the file", err)
			}
			if n := events.Load(); n != 0 {
				t.Errorf("a bad cache file triggered training (%d progress events)", n)
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != content {
				t.Errorf("the bad file was modified: %q, %v", got, err)
			}
		})
	}
}

func TestSaveFileAtomic(t *testing.T) {
	m, _ := testModel(t)
	want := saved(t, m)

	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved(t, loaded), want) {
		t.Error("SaveFile/LoadModelFile does not round-trip")
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Errorf("save left %v behind, want only model.json", names)
	}

	t.Run("target is a directory", func(t *testing.T) {
		dir := t.TempDir()
		target := filepath.Join(dir, "model.json")
		if err := os.Mkdir(target, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := m.SaveFile(target); err == nil {
			t.Fatal("saving over a directory succeeded")
		}
		if names := dirNames(t, dir); len(names) != 1 {
			t.Errorf("failed save left %v behind, want only model.json", names)
		}
	})

	t.Run("read-only directory", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "model.json")
		if err := os.WriteFile(path, []byte("old model"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chmod(dir, 0o555); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.Chmod(dir, 0o755) })
		if f, err := os.CreateTemp(dir, "probe"); err == nil {
			f.Close()
			os.Remove(f.Name())
			t.Skip("this user can write into a read-only directory")
		}
		if err := m.SaveFile(path); err == nil {
			t.Fatal("saving into a read-only directory succeeded")
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != "old model" {
			t.Errorf("failed save changed the existing model: %q, %v", got, err)
		}
	})
}
