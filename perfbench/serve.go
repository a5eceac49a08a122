package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"emsim/internal/core"
	"emsim/internal/cpu"
	"emsim/internal/obs"
	"emsim/internal/serve"
)

// loopback is a serve.Server listening on 127.0.0.1 inside the
// benchmark process, with the HTTP client that drives it.
type loopback struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan error
}

func startLoopback(m *core.Model, cfg cpu.Config) (*loopback, error) {
	srv, err := serve.New(m, serve.Config{CPU: cfg, Workers: workers()})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	l := &loopback{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: workers(),
			DisableCompression:  true,
		}},
	}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// close shuts the listener down, drains the server and waits for the
// serving goroutine to exit.
func (l *loopback) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = l.hs.Shutdown(ctx) // drain errors leave nothing to clean up
	<-l.done
	l.srv.Close()
	l.client.CloseIdleConnections()
}

// simRequest and simReply are the /v1/simulate wire format.
type simRequest struct {
	Words         []uint32 `json:"words"`
	OmitSignal    bool     `json:"omit_signal,omitempty"`
	IncludeStages bool     `json:"include_stages,omitempty"`
}

type simReply struct {
	Cycles          int             `json:"cycles"`
	SamplesPerCycle int             `json:"samples_per_cycle"`
	Stats           wireStats       `json:"stats"`
	Signal          json.RawMessage `json:"signal"`
	Stages          []struct {
		Stage string `json:"stage"`
	} `json:"stages"`
}

// wireStats is the reply's core statistics.
type wireStats struct {
	Retired     int     `json:"retired"`
	IPC         float64 `json:"ipc"`
	Bubbles     int     `json:"bubbles"`
	StallCycles int     `json:"stall_cycles"`
	Flushes     int     `json:"flushes"`
	CacheHits   uint64  `json:"cache_hits"`
	CacheMisses uint64  `json:"cache_misses"`
	Mispredicts uint64  `json:"mispredicts"`
}

func wireStatsOf(st cpu.Stats) wireStats {
	return wireStats{
		Retired: st.Retired, IPC: st.IPC(), Bubbles: st.Bubbles, StallCycles: st.StallCycles,
		Flushes: st.Flushes, CacheHits: st.CacheHits, CacheMisses: st.CacheMisses, Mispredicts: st.Mispredicts,
	}
}

// key folds the statistics into one word (FNV-1a over their bits), so a
// request's record stays small.
func (s wireStats) key() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range []uint64{
		uint64(s.Retired), math.Float64bits(s.IPC), uint64(s.Bubbles), uint64(s.StallCycles),
		uint64(s.Flushes), s.CacheHits, s.CacheMisses, s.Mispredicts,
	} {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// exchange is one completed request.
type exchange struct {
	status int
	bytes  int
	dur    time.Duration
	reply  simReply
	err    error // transport or decode failure
}

// simulate posts one program and reads the whole reply.
func (l *loopback) simulate(ctx context.Context, words []uint32, omit bool) exchange {
	body, err := json.Marshal(simRequest{Words: words, OmitSignal: omit, IncludeStages: omit})
	if err != nil {
		return exchange{err: err}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.url+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		return exchange{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := l.client.Do(req)
	if err != nil {
		return exchange{err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	x := exchange{status: resp.StatusCode, bytes: len(data), dur: time.Since(t0)}
	if err != nil {
		x.err = err
		return x
	}
	if x.status/100 == 2 {
		rest, signal := cutSignal(data)
		x.err = json.Unmarshal(rest, &x.reply)
		x.reply.Signal = signal
	}
	return x
}

// signalKey is how a reply's signal array begins.
var signalKey = []byte(`"signal":[`)

// cutSignal splits a reply into its signal array and the rest of the
// reply with an empty array in its place. The client then decodes only
// the small part and counts the signal's numbers instead of parsing
// them, so the load generator takes little of the CPU the server needs.
// The encoder writes no bracket inside a number array.
func cutSignal(data []byte) (rest, signal []byte) {
	i := bytes.Index(data, signalKey)
	if i < 0 {
		return data, nil
	}
	start := i + len(signalKey) - 1
	n := bytes.IndexByte(data[start:], ']')
	if n < 0 {
		return data, nil
	}
	end := start + n + 1
	rest = append(append(append([]byte(nil), data[:start]...), "[]"...), data[end:]...)
	return rest, data[start:end]
}

// shed reports a refused request (429 queue full, 503 draining).
func (x *exchange) shed() bool {
	return x.status == http.StatusTooManyRequests || x.status == http.StatusServiceUnavailable
}

// scrapeHandlerP50 reads the simulate endpoint's request-duration
// histogram from GET /metrics and interpolates its median, in ms.
func (l *loopback) scrapeHandlerP50(ctx context.Context) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.url+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	const prefix = `emsim_request_duration_seconds_bucket{endpoint="simulate",le="`
	var bounds, counts []float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), prefix)
		if !ok {
			continue
		}
		le, cnt, ok := strings.Cut(rest, `"} `)
		if !ok {
			return 0, fmt.Errorf("metrics: malformed bucket line %q", sc.Text())
		}
		bound := math.Inf(1)
		if le != "+Inf" {
			if bound, err = strconv.ParseFloat(le, 64); err != nil {
				return 0, fmt.Errorf("metrics: bucket bound: %w", err)
			}
		}
		c, err := strconv.ParseFloat(cnt, 64)
		if err != nil {
			return 0, fmt.Errorf("metrics: bucket count: %w", err)
		}
		bounds, counts = append(bounds, bound), append(counts, c)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return histogramQuantile(bounds, counts, 0.5) * 1e3, nil
}

// histogramQuantile interpolates the q-quantile of a cumulative
// histogram linearly within the bucket that holds it, as Prometheus's
// histogram_quantile does.
func histogramQuantile(bounds, cum []float64, q float64) float64 {
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0
	}
	rank := q * cum[len(cum)-1]
	lo, prev := 0.0, 0.0
	for i, c := range cum {
		if c >= rank {
			if math.IsInf(bounds[i], 1) {
				return lo
			}
			if c == prev {
				return bounds[i]
			}
			return lo + (bounds[i]-lo)*(rank-prev)/(c-prev)
		}
		lo, prev = bounds[i], c
	}
	return lo
}

// serveWorkload is a closed loop of clients against a loopback
// serve.New, each posting a new seeded mixed program and waiting for
// the reply. Even requests ask for the signal (the JSON float encoding
// dominates); odd ones send omit_signal + include_stages (the
// simulation dominates).
type serveWorkload struct {
	b    *bench
	ref  reference
	lb   *loopback
	next atomic.Int64 // request index across windows

	mu        sync.Mutex
	completed []served
	digests   map[int32][sha256.Size]byte // signal digests of a sample of full replies, by request
	shed      int
}

// served is what the output check needs of one completed request: a
// fixed 32-byte record, so the benchmark's own bookkeeping stays small
// next to the workload's footprint.
type served struct {
	index   int32
	status  int16
	omit    bool
	ok      bool   // no transport or decode error
	cycles  int32  // reply cycles
	spc     int32  // reply samples per cycle
	samples int32  // reply signal length
	stages  int32  // reply stage breakdown length
	stats   uint64 // wireStats.key of the reply's statistics
}

// signalDigest hashes the bit patterns of a signal's samples.
func signalDigest(sig []float64) [sha256.Size]byte {
	buf := make([]byte, 8*len(sig))
	for i, v := range sig {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return sha256.Sum256(buf)
}

func newServeWorkload(b *bench) workload {
	return &serveWorkload{b: b, digests: map[int32][sha256.Size]byte{}}
}

func (w *serveWorkload) setup(ctx context.Context) error {
	if err := w.ref.setup(ctx, w.b.cfg.size); err != nil {
		return err
	}
	lb, err := startLoopback(w.ref.model(), modelCPU(w.ref.dev))
	if err != nil {
		return err
	}
	if w.lb != nil {
		w.lb.close()
	}
	w.lb = lb
	return nil
}

// program generates request i's program: a fresh seeded mixed program
// of seeded length.
func (w *serveWorkload) program(i int) ([]uint32, error) {
	sz := w.b.cfg.size
	n := sz.progMin + int(uint64(subSeed(w.b.cfg.seed, laneRequest, uint64(i)))%uint64(sz.progMax-sz.progMin+1))
	progs, err := mixedPrograms(subSeed(w.b.cfg.seed, laneRequest, uint64(i)), laneRequest, 1, func(int) int { return n })
	if err != nil {
		return nil, err
	}
	return progs[0], nil
}

func (w *serveWorkload) run(ctx context.Context, d time.Duration) (*window, error) {
	clients := workers()
	win := &window{}
	start := time.Now()
	deadline := start.Add(d)
	var (
		wg       sync.WaitGroup
		firstErr error
	)
	wg.Add(clients)
	for range clients {
		go func() {
			defer wg.Done()
			lane := obs.NextLane()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(w.next.Add(1) - 1)
				words, err := w.program(i)
				if err != nil {
					w.mu.Lock()
					firstErr = err
					w.mu.Unlock()
					return
				}
				omit := i%2 == 1
				obs.Begin(spanOp, lane)
				x := w.lb.simulate(ctx, words, omit)
				obs.End(spanOp, lane)
				end := time.Since(start)
				r := &x.reply
				s := served{
					index: int32(i), status: int16(x.status), omit: omit, ok: x.err == nil,
					cycles: int32(r.Cycles), spc: int32(r.SamplesPerCycle),
					samples: int32(signalSamples(r.Signal)), stages: int32(len(r.Stages)), stats: r.Stats.key(),
				}
				var digest *[sha256.Size]byte
				if !omit && s.ok && i%(2*w.b.cfg.size.checkSignalEvery) == 0 {
					var sig []float64
					if err := json.Unmarshal(r.Signal, &sig); err != nil {
						s.ok = false
					}
					d := signalDigest(sig)
					digest = &d
				}
				w.mu.Lock()
				if x.shed() {
					w.shed++
				}
				win.ops = append(win.ops, opSample{end: end, dur: x.dur, traces: 1, cycles: float64(r.Cycles)})
				w.completed = append(w.completed, s)
				if digest != nil {
					w.digests[s.index] = *digest
				}
				w.b.attempted++
				w.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	win.elapsed = time.Since(start)
	return win, firstErr
}

// signalSamples counts the elements of a raw JSON signal array (the
// encoder writes numbers separated by bare commas).
func signalSamples(raw json.RawMessage) int {
	t := bytes.TrimSpace(raw)
	if len(t) <= len("[]") {
		return 0
	}
	return bytes.Count(t, []byte(",")) + 1
}

// verify replays every completed request's program on a fresh core and
// checks the reply: a 2xx status, cycles and statistics equal to the
// replayed cpu.Stats, a signal of cycles × samples-per-cycle samples
// (none when omitted, with the stage breakdown instead), and for a
// sample of requests the signal bit-equal to an in-process session.
func (w *serveWorkload) verify(context.Context) error {
	m, cfg := w.ref.model(), modelCPU(w.ref.dev)
	c, err := cpu.New(cfg)
	if err != nil {
		return err
	}
	sess, err := core.NewSession(m, cfg)
	if err != nil {
		return err
	}
	discard := cpu.CycleSinkFunc(func(*cpu.Cycle) error { return nil })
	for _, s := range w.completed {
		if !w.b.check(s.ok && s.status/100 == 2, "request %d: status %d, transport or decode error: %v", s.index, s.status, !s.ok) {
			continue
		}
		words, err := w.program(int(s.index))
		if err != nil {
			return err
		}
		if err := c.RunProgramTo(words, discard); err != nil {
			return fmt.Errorf("replay request %d: %w", s.index, err)
		}
		st := c.Stats()
		w.b.check(int(s.cycles) == st.Cycles && s.stats == wireStatsOf(st).key(),
			"request %d: reply cycles %d or statistics differ from the replayed core %+v", s.index, s.cycles, st)
		if s.omit {
			w.b.check(s.samples == 0 && s.stages == cpu.NumStages, "request %d: omit_signal reply has %d samples, %d stages", s.index, s.samples, s.stages)
			continue
		}
		w.b.check(int(s.samples) == int(s.cycles)*m.SamplesPerCycle && int(s.spc) == m.SamplesPerCycle,
			"request %d: %d signal samples for %d cycles at %d samples/cycle", s.index, s.samples, s.cycles, s.spc)
		if d, ok := w.digests[s.index]; ok {
			want, err := sess.SimulateProgram(words)
			if err != nil {
				return err
			}
			w.b.check(d == signalDigest(want), "request %d: served signal differs from the in-process session", s.index)
		}
	}
	w.b.meta["requests_checked"] = len(w.completed)
	return nil
}

func (w *serveWorkload) endToEnd(context.Context) error { return w.ref.endToEnd(w.b) }

// layers replays every layer on a sample of the workload's request
// programs; the serve metrics come from the workload's own server.
func (w *serveWorkload) layers(ctx context.Context, untraced *window) error {
	corpus, err := w.corpus()
	if err != nil {
		return err
	}
	env := replayEnv{model: w.ref.model(), cfg: modelCPU(w.ref.dev), dev: w.ref.dev, corpus: corpus, seed: w.b.cfg.seed}
	c, err := replayLayers(ctx, w.b, env)
	if err != nil {
		return err
	}
	unexplained, err := replayServe(ctx, w.b, env, c, false)
	if err != nil {
		return err
	}
	w.b.set("layers.unaccounted_frac", unexplained, "frac")
	p50, err := w.lb.scrapeHandlerP50(ctx)
	if err != nil {
		return err
	}
	w.b.set("serve.handler_ms_p50", p50, "ms")
	w.b.set("serve.shed_frac", ratio(float64(w.shed), float64(w.b.attempted)), "frac")
	setTrainerMetrics(w.b, w.ref.runs[len(w.ref.runs)-1])
	return nil
}

// corpus is the first requests' programs.
func (w *serveWorkload) corpus() ([][]uint32, error) {
	var out [][]uint32
	for i := 0; i < w.b.cfg.size.corpus; i++ {
		words, err := w.program(i)
		if err != nil {
			return nil, err
		}
		out = append(out, words)
	}
	return out, nil
}

func (w *serveWorkload) close() {
	if w.lb != nil {
		w.lb.close()
	}
}

// replayServe posts every corpus program to a fresh loopback server in
// both modes, serveReps times each, one request at a time. It sets
// serve.overhead_frac (latency minus the replayed in-process session
// time, over latency) and serve.resp_bytes_per_req and, when own is
// true (workloads without a server of their own), serve.handler_ms_p50
// and serve.shed_frac. It returns the mean share of request latency
// that the replayed step, amplitude and reconstruct layers leave
// unexplained.
func replayServe(ctx context.Context, b *bench, env replayEnv, c *layerCosts, own bool) (float64, error) {
	lb, err := startLoopback(env.model, env.cfg)
	if err != nil {
		return 0, err
	}
	defer lb.close()
	obs.Begin(spanServe, b.lane)
	defer obs.End(spanServe, b.lane)
	var overhead, bytesSum, unexplained, shed float64
	sent, entries := 0, 0
	for i, words := range env.corpus {
		for _, omit := range []bool{false, true} {
			var lat []float64
			size := 0
			for r := 0; r < b.cfg.size.serveReps; r++ {
				x := lb.simulate(ctx, words, omit)
				sent++
				if x.shed() {
					shed++
				}
				if x.err != nil || x.status/100 != 2 {
					return 0, fmt.Errorf("replay request %d: status %d, err %v", i, x.status, x.err)
				}
				b.check(x.reply.Cycles == int(c.cyclesByProgram[i]), "replay request %d: %d cycles, replay core ran %v", i, x.reply.Cycles, c.cyclesByProgram[i])
				lat = append(lat, float64(x.dur.Nanoseconds()))
				size = x.bytes
			}
			l := median(lat)
			entries++
			overhead += (l - c.sessionNsByProgram[i]) / l
			unexplained += 1 - c.cyclesByProgram[i]*(c.stepNsPerCycle+c.ampNsPerCycle+c.reconNsPerCycle)/l
			bytesSum += float64(size)
		}
	}
	n := float64(entries)
	b.set("serve.overhead_frac", overhead/n, "frac")
	b.set("serve.resp_bytes_per_req", bytesSum/n, "count")
	if own {
		p50, err := lb.scrapeHandlerP50(ctx)
		if err != nil {
			return 0, err
		}
		b.set("serve.handler_ms_p50", p50, "ms")
		b.set("serve.shed_frac", shed/float64(sent), "frac")
	}
	return unexplained / n, nil
}
