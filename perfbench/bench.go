package main

import (
	"fmt"
	"net/http"
	"runtime"
	"time"

	"hotc/internal/faas/live"
)

// setupRepeats is how many times an end-to-end run sets the daemon up;
// setup_s is their median and the last one serves the timed window.
const setupRepeats = 3

// idleTick is the idle-capacity sampling period.
const idleTick = 50 * time.Millisecond

// bench is one invocation: a workload, its seed and its window.
type bench struct {
	w      *workload
	seed   int64
	window time.Duration
	conns  int
	in     inputs
	// log collects the benchmark's spans in a traced run (nil otherwise).
	log *spanLog
	// failures are violated correctness and accounting checks.
	failures []string
	// printed is every metric computed, reported or not.
	printed map[string]metric
}

func (b *bench) fail(format string, args ...any) {
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
}

func (b *bench) put(name string, v float64, unit string) {
	if b.printed == nil {
		b.printed = map[string]metric{}
	}
	b.printed[name] = metric{Value: v, Unit: unit}
}

// hosted is one self-hosted daemon with its load and scrape clients.
type hosted struct {
	d      *live.Daemon
	cfg    live.PoolConfig
	load   *client
	scrape *scraper
}

func (s *hosted) stop() {
	s.load.close()
	s.scrape.http.CloseIdleConnections()
	s.d.Stop()
}

// setup starts a daemon, deploys the workload's functions, waits for
// the pre-forked pool to fill and warms every function up. It returns
// the ready daemon and how long all of that took.
func (b *bench) setup(cfg live.PoolConfig) (*hosted, time.Duration, error) {
	t0 := time.Now()
	d := live.NewDaemon(cfg)
	for _, fn := range b.w.fns {
		t := time.Now()
		if err := d.Deploy(fn); err != nil {
			return nil, 0, fmt.Errorf("deploy %s: %w", fn.Name, err)
		}
		b.log.step("setup.deploy", t)
	}
	t := time.Now()
	base, err := d.StartOn("127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	b.log.step("setup.start", t)
	s := &hosted{
		d:      d,
		cfg:    cfg,
		load:   newClient(base, b.w.fns, b.in, b.conns, b.log != nil),
		scrape: &scraper{http: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1}}, base: base},
	}
	if err := b.awaitPrefork(s); err != nil {
		s.stop()
		return nil, 0, err
	}

	// One request per function, one at a time.
	t = time.Now()
	first := make([]int, len(b.w.fns))
	for i := range first {
		first[i] = i
	}
	for _, r := range s.load.runList(first, 1) {
		if !r.ok() || !r.bodyOK {
			s.stop()
			return nil, 0, fmt.Errorf("warm-up request to %s failed: status %d", b.w.fns[r.fn].Name, r.status)
		}
	}
	b.log.step("setup.warmup", t)
	// Warm-up cold starts drained the pre-forked pool; the window
	// starts from a full one.
	if err := b.awaitPrefork(s); err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}

// awaitPrefork waits until the generic pre-forked pool is full (no-op
// without prefork).
func (b *bench) awaitPrefork(s *hosted) error {
	if !s.cfg.Prefork {
		return nil
	}
	defer b.log.step("setup.prefork_fill", time.Now())
	idle := s.d.Registry().Gauge("hotc_coldpath_generic_idle", "")
	deadline := time.Now().Add(10 * time.Second)
	for int(idle.Value()) < s.cfg.PreforkSize {
		if time.Now().After(deadline) {
			return fmt.Errorf("prefork pool stuck at %g of %d", idle.Value(), s.cfg.PreforkSize)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// window is one timed window's raw measurements.
type window struct {
	results []result
	elapsed time.Duration
	cpu     time.Duration
	// mallocs and allocBytes are the process's heap allocation deltas.
	mallocs, allocBytes uint64
	idle                *idleSampler
	before, after       snapshot
	predsBefore         map[string]live.PredictionTrace
	predsAfter          map[string]live.PredictionTrace
	// served are the 2xx results; attempted and failed count all.
	served            []*result
	attempted, failed int
}

// measure runs the workload's timed window against a ready daemon
// and checks replies and accounting.
func (b *bench) measure(s *hosted) (*window, error) {
	var err error
	win := &window{}
	if win.before, err = s.scrape.snapshot(); err != nil {
		return nil, err
	}
	if win.predsBefore, err = s.scrape.predictions(); err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	win.idle = startIdleSampler(s.d, b.w.fns, idleTick)
	cpu0 := cpuTime()
	var start time.Time
	win.results, start = s.load.runOpen(b.w.schedule(b.seed, b.window), b.conns)
	win.elapsed = time.Since(start)
	win.cpu = cpuTime() - cpu0
	win.idle.finish()
	runtime.ReadMemStats(&ms1)
	win.mallocs = ms1.Mallocs - ms0.Mallocs
	win.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	if win.after, err = s.scrape.snapshot(); err != nil {
		return nil, err
	}
	if win.predsAfter, err = s.scrape.predictions(); err != nil {
		return nil, err
	}

	acct := accounting{
		Modes:     map[string]int{},
		Totals:    win.after.sys.Stats,
		Delta:     statsDelta(win.after.sys.Stats, win.before.sys.Stats),
		OKDelta:   win.promDelta("hotc_requests_total", "outcome", "ok"),
		BootDelta: map[string]float64{},
	}
	if s.cfg.NewPredictor != nil {
		acct.PrewarmSlack = acct.Delta.Prewarmed + len(b.w.fns)*s.cfg.MaxIdlePerFunction
	}
	for _, m := range bootModes {
		acct.BootDelta[m] = win.promDelta("hotc_coldpath_boots_total", "mode", m)
	}
	wrong := 0
	for i := range win.results {
		r := &win.results[i]
		win.attempted++
		if !r.ok() {
			win.failed++
			continue
		}
		if !r.bodyOK {
			wrong++
			win.failed++
			continue
		}
		win.served = append(win.served, r)
		acct.ClientOK++
		if r.reused {
			acct.Reused++
		} else {
			acct.Modes[r.boot]++
		}
	}
	if wrong > 0 {
		b.fail("%d of %d replies had the wrong body", wrong, win.attempted)
	}
	for _, msg := range acct.check() {
		b.fail("%s", msg)
	}
	return win, nil
}

// promDelta is the change over the window of the /metrics samples of
// name whose labels include the given key, value pairs.
func (win *window) promDelta(name string, match ...string) float64 {
	return win.after.prom.sum(name, match...) - win.before.prom.sum(name, match...)
}

func statsDelta(a, b live.Stats) live.Stats {
	return live.Stats{
		Requests:        a.Requests - b.Requests,
		ColdStarts:      a.ColdStarts - b.ColdStarts,
		Reused:          a.Reused - b.Reused,
		GenericHandoffs: a.GenericHandoffs - b.GenericHandoffs,
		RentedBoots:     a.RentedBoots - b.RentedBoots,
		Prewarmed:       a.Prewarmed - b.Prewarmed,
		Retired:         a.Retired - b.Retired,
		Expired:         a.Expired - b.Expired,
		Canceled:        a.Canceled - b.Canceled,
	}
}

// cpuPerReq is the process CPU per served request, in microseconds.
func (win *window) cpuPerReq() float64 {
	return ratio(float64(win.cpu)/1e3, float64(len(win.served)))
}

// endToEnd sets up setupRepeats times, measures one window with the
// daemon's production tracing defaults and reports the end-to-end
// metrics.
func (b *bench) endToEnd() (report, error) {
	cfg := b.w.config()
	var setups []float64
	var s *hosted
	for i := 0; i < setupRepeats; i++ {
		sess, took, err := b.setup(cfg)
		if err != nil {
			return report{}, err
		}
		setups = append(setups, took.Seconds())
		if i < setupRepeats-1 {
			sess.stop()
		} else {
			s = sess
		}
	}
	win, err := b.measure(s)
	s.stop()
	if err != nil {
		return report{}, err
	}
	b.endToEndMetrics(win, median(sorted(setups)))
	return b.reportOf(win, endToEnd), nil
}

// endToEndMetrics computes the caller- and operator-visible numbers.
func (b *bench) endToEndMetrics(win *window, setup float64) {
	var lat, cold []float64
	for _, r := range win.served {
		lat = append(lat, r.latency())
		if !r.reused {
			cold = append(cold, r.latency())
		}
	}
	lat = sorted(lat)
	n := float64(len(win.served))

	b.put("latency_p50_ms", median(lat), "ms")
	b.put("latency_mean_ms", mean(lat), "ms")
	for _, q := range []float64{0.9, 0.95, 0.99} {
		if v, err := percentile(lat, q); err == nil {
			b.put(fmt.Sprintf("latency_p%g_ms", q*100), v, "ms")
		}
	}
	b.put("throughput_rps", n/win.elapsed.Seconds(), "req/s")
	b.put("cpu_us_per_req", win.cpuPerReq(), "us")
	b.put("idle_instances_mean", win.idle.warm+win.idle.generic, "count")
	b.put("setup_s", setup, "s")
	b.put("cold_fraction", ratio(float64(len(cold)), n), "ratio")
	b.put("cold_latency_p50_ms", median(sorted(cold)), "ms")
	b.put("failed_fraction", ratio(float64(win.failed), float64(win.attempted)), "ratio")
	b.put("requests_served", n, "count")
}

// spec names a metric a result line carries, with its unit.
type spec struct{ name, unit string }

// reportOf builds the result line from the given metrics.
func (b *bench) reportOf(win *window, specs []spec) report {
	rep := report{Attempted: win.attempted, Failed: win.failed, Metrics: map[string]metric{}}
	for _, s := range specs {
		m, ok := b.printed[s.name]
		if !ok || m.Unit != s.unit {
			b.fail("metric %s was not measured in %s", s.name, s.unit)
			continue
		}
		rep.Metrics[s.name] = m
	}
	return rep
}

// endToEnd are the metrics the result line of --trace 0 carries, in
// BENCHMARK.json order.
var endToEnd = []spec{
	{"latency_p50_ms", "ms"}, {"cold_latency_p50_ms", "ms"}, {"cold_fraction", "ratio"},
	{"throughput_rps", "req/s"}, {"idle_instances_mean", "count"}, {"setup_s", "s"},
}
