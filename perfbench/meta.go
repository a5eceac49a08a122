package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// exactMetrics are the metrics that repeat exactly for one seed: they
// are compared for equality, not as timings.
var exactMetrics = []string{
	"accuracy_ncc",
	"cpu.cycles_per_trace", "cpu.ipc", "cpu.stall_cycle_frac", "cpu.cache_miss_rate",
	"cpu.mispredicts_per_kinst", "cpu.injected_per_trace",
	"core.activity_selected_bits", "serve.resp_bytes_per_req",
	"train.measurements", "train.cache_hit_frac",
}

// runMetadata records what a result needs to be compared with another:
// the seed, the parallelism, the host and the code.
func runMetadata(cfg config) map[string]any {
	commit, modified := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.window.Seconds(),
		"trace":         cfg.trace,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"commit":        commit,
		"modified":      modified,
		"exact_metrics": exactMetrics,
	}
}

// cpuModel reads the host CPU's model name.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostTicks reads the machine's CPU time from /proc/stat, in clock
// ticks: the time stolen by the hypervisor for other guests and the
// total. ok is false where the file or its steal column is missing.
func hostTicks() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, true
}

// stealMeter measures the share of the machine's CPU time the
// hypervisor gave to other guests over a window. On a shared virtual
// machine this is what moves timings between runs of the same code, so
// it is recorded next to them.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := hostTicks()
	return stealMeter{s, t, ok}
}

// frac returns the stolen share since start, or -1 if unknown.
func (m stealMeter) frac() float64 {
	s, t, ok := hostTicks()
	if !m.ok || !ok || t <= m.total {
		return -1
	}
	return float64(s-m.steal) / float64(t-m.total)
}
