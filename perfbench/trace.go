package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"emsim/internal/obs"
)

// The benchmark's own spans, around every call into a layer. They
// render on the benchmark's lane; the program's spans (session.*,
// defend.*, serve.*, trainer.*) render on the lanes their components
// claim.
var (
	spanSetup = obs.RegisterSpan("bench.setup")
	spanOp    = obs.RegisterSpan("bench.op")

	spanDecode    = obs.RegisterSpan("bench.replay.decode")
	spanStep      = obs.RegisterSpan("bench.replay.step")
	spanAmplitude = obs.RegisterSpan("bench.replay.amplitude")
	spanRecon     = obs.RegisterSpan("bench.replay.reconstruct")
	spanSession   = obs.RegisterSpan("bench.replay.session")
	spanExtract   = obs.RegisterSpan("bench.replay.extract")
	spanDefended  = obs.RegisterSpan("bench.replay.defend-session")
	spanNoise     = obs.RegisterSpan("bench.replay.noise")
	spanArm       = obs.RegisterSpan("bench.replay.arm")
	spanCPA       = obs.RegisterSpan("bench.replay.cpa")
	spanTVLA      = obs.RegisterSpan("bench.replay.tvla")
	spanSnapshot  = obs.RegisterSpan("bench.replay.snapshot")
	spanMeasure   = obs.RegisterSpan("bench.replay.measure")
	spanServe     = obs.RegisterSpan("bench.replay.serve")
	spanEvaluate  = obs.RegisterSpan("bench.replay.evaluate")
)

// tracedSpans are the spans every workload's traced run records; each
// becomes a span.<name>.self_s metric. The benchmark's spans come
// first, then the program's.
var tracedSpans = []string{
	"bench.setup", "bench.op",
	"bench.replay.decode", "bench.replay.step", "bench.replay.amplitude",
	"bench.replay.reconstruct", "bench.replay.session", "bench.replay.extract",
	"bench.replay.defend-session", "bench.replay.noise", "bench.replay.arm",
	"bench.replay.cpa", "bench.replay.tvla", "bench.replay.snapshot",
	"bench.replay.measure", "bench.replay.serve", "bench.replay.evaluate",
	"session.simulate",
	"defend.evaluate", "defend.arm", "defend.trace", "defend.analyze",
	"serve.queued", "serve.run", "serve.drain",
	"trainer.kernel-fit", "trainer.baseline", "trainer.activity", "trainer.miso",
	"trainer.measure", "trainer.fit",
}

// spanStats is one span name's totals over a trace.
type spanStats struct {
	count     int
	total     int64 // summed durations, ns
	self      int64 // durations minus covered child time on the same lane, ns
	durations []int64
}

// selfTimes pairs begin/end events per lane and charges each span its
// duration minus the time its children on the same lane cover. Spans on
// other lanes (worker sessions, serve jobs) are separate tracks: their
// time is not subtracted from the span that caused them.
func selfTimes(events []obs.Event) (map[string]*spanStats, int) {
	type open struct {
		name  string
		start int64
		child int64
	}
	stacks := map[int][]open{}
	out := map[string]*spanStats{}
	dropped := 0
	for _, e := range events {
		st := stacks[e.Lane]
		if !e.End {
			stacks[e.Lane] = append(st, open{name: e.Name, start: e.Nanos})
			continue
		}
		i := len(st) - 1
		for i >= 0 && st[i].name != e.Name {
			i--
		}
		if i < 0 {
			dropped++ // the begin was overwritten by the ring
			continue
		}
		o := st[i]
		dropped += len(st) - 1 - i // begins left open inside it
		st = st[:i]
		dur := e.Nanos - o.start
		if len(st) > 0 {
			st[len(st)-1].child += dur
		}
		stacks[e.Lane] = st
		s := out[e.Name]
		if s == nil {
			s = &spanStats{}
			out[e.Name] = s
		}
		s.count++
		s.total += dur
		s.self += dur - o.child
		s.durations = append(s.durations, dur)
	}
	return out, dropped
}

// recordSpans turns the traced run's events into span.<name>.self_s
// metrics and writes the Chrome trace artifact.
func recordSpans(b *bench, events []obs.Event) error {
	stats, dropped := selfTimes(events)
	for _, name := range tracedSpans {
		v := 0.0
		if s := stats[name]; b.check(s != nil, "traced run recorded no %s span", name) {
			v = float64(s.self) / 1e9
		}
		b.set("span."+name+".self_s", v, "s")
	}
	table := map[string]map[string]float64{}
	for name, s := range stats {
		table[name] = map[string]float64{"count": float64(s.count), "total_s": float64(s.total) / 1e9, "self_s": float64(s.self) / 1e9}
	}
	b.meta["spans"] = table
	b.meta["span_events"] = len(events)
	b.meta["span_unpaired"] = dropped
	if q := stats["serve.queued"]; q != nil {
		var ms []float64
		for _, d := range q.durations {
			ms = append(ms, float64(d)/1e6)
		}
		b.set("serve.queue_wait_ms_p50", median(ms), "ms")
	}
	if err := os.MkdirAll(b.cfg.artifacts, 0o755); err != nil {
		return fmt.Errorf("artifacts: %w", err)
	}
	path := filepath.Join(b.cfg.artifacts, fmt.Sprintf("trace-%s-seed%d.json", b.cfg.workload, b.cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("artifacts: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := obs.WriteChromeTrace(w, events); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	b.meta["chrome_trace"] = path
	return nil
}
