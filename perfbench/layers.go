package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hotc/internal/faas/live"
	"hotc/internal/obs"
	"hotc/internal/prefork"
	"hotc/internal/rng"
)

// traceRing sizes the daemon's span ring in the traced run so that
// every request of a window fits.
const traceRing = 16384

// ladderCalls is how many sequential calls each ladder rung times,
// after ladderWarm untimed ones.
const (
	ladderCalls = 2000
	ladderWarm  = 200
)

// layered runs the workload twice on fresh daemons with the same
// seed: untraced with the production tracing defaults (the CPU and
// allocation baseline), then traced, with the daemon keeping every
// request's span and the benchmark keeping its own. It joins the two
// span sets by trace ID and reports the per-layer metrics.
func (b *bench) layered() (report, error) {
	s, _, err := b.setup(b.w.config())
	if err != nil {
		return report{}, err
	}
	plain, err := b.measure(s)
	s.stop()
	if err != nil {
		return report{}, err
	}

	b.log = &spanLog{t0: time.Now(), workload: b.w.name}
	cfg := b.w.config()
	cfg.TraceSampleRate = 1
	cfg.TraceCapacity = traceRing
	if s, _, err = b.setup(cfg); err != nil {
		return report{}, err
	}
	traced, err := b.measure(s)
	if err != nil {
		s.stop()
		return report{}, err
	}
	spans, err := s.scrape.traceSpans()
	if err != nil {
		s.stop()
		return report{}, err
	}
	rungs, err := b.ladder(s)
	s.stop()
	if err != nil {
		return report{}, err
	}
	b.layerMetrics(plain, traced, spans, rungs)
	if err := b.log.write(filepath.Join(".bench_build", "spans", b.w.name+".jsonl")); err != nil {
		return report{}, err
	}
	rep := b.reportOf(traced, perLayer)
	rep.Attempted += plain.attempted
	rep.Failed += plain.failed
	return rep, nil
}

// layerMetrics computes every per-layer metric. Counters come from
// the daemon's accessors over the traced window; timings from the
// joined spans; allocations from the untraced window, where the span
// ring does not allocate.
func (b *bench) layerMetrics(plain, tr *window, spans []obs.Span, rungs map[string]float64) {
	byID := make(map[string]*obs.Span, len(spans))
	for i := range spans {
		byID[spans[i].TraceID] = &spans[i]
	}
	var self, out, back, run, late, wait []float64
	joined, fullBoots := 0, 0
	for _, r := range tr.results {
		late = append(late, float64(r.sent-r.due)/1e6)
		wait = append(wait, float64(r.connWait)/1e6)
	}
	for _, r := range tr.served {
		if r.boot == "cold" {
			fullBoots++
		}
		sp := byID[r.traceID]
		b.log.request(r, b.w.fns[r.fn].Name, sp)
		if sp == nil {
			continue
		}
		joined++
		run = append(run, ms(sp.Exec()))
		if r.reused {
			wd := gap(sp.WatchdogIn, sp.WatchdogOut)
			self = append(self, ms(time.Duration(r.done-r.sent)-wd-sp.Queue()))
			out = append(out, ms(gap(sp.GatewayIn, sp.WatchdogIn)))
			back = append(back, ms(gap(sp.WatchdogOut, sp.ClientOut)))
		}
	}
	if joined != len(tr.served) {
		b.fail("only %d of %d traced requests joined a gateway span", joined, len(tr.served))
	}

	b.put("client.spans_joined", float64(joined), "count")
	b.put("client.failed_fraction", ratio(float64(tr.failed), float64(tr.attempted)), "ratio")
	b.put("client.late_ms_p95", tail(late, 0.95), "ms")
	b.put("client.conn_wait_ms", mean(wait), "ms")

	pn := float64(len(plain.served))
	b.put("process.cpu_us_per_req", plain.cpuPerReq(), "us")
	b.put("gateway.self_ms", median(sorted(self)), "ms")
	b.put("gateway.allocs_per_req", ratio(float64(plain.mallocs), pn), "count")
	b.put("gateway.bytes_per_req", ratio(float64(plain.allocBytes), pn), "B")
	b.put("hop.out_ms", median(sorted(out)), "ms")
	b.put("hop.back_ms", median(sorted(back)), "ms")
	for name, v := range rungs {
		b.put(name, v, "us")
	}
	b.put("function.run_ms", median(sorted(run)), "ms")

	b.put("admission.wait_ms", histMean(tr, "hotc_adm_queue_wait_ms"), "ms")
	b.put("admission.rejected", tr.promDelta("hotc_adm_rejected_total"), "count")

	d := statsDelta(tr.after.sys.Stats, tr.before.sys.Stats)
	ctlRetired := tr.promDelta("hotc_ctl_retire_total")
	b.put("pool.warm_hits", float64(d.Reused), "count")
	b.put("pool.misses", float64(d.ColdStarts), "count")
	b.put("pool.hit_ratio", ratio(float64(d.Reused), float64(d.Reused+d.ColdStarts)), "ratio")
	b.put("pool.cap_evictions", float64(d.Retired)-ctlRetired, "count")

	cpA, cpB := tr.after.sys.ColdPath, tr.before.sys.ColdPath
	emptyMisses := 0
	if cpA.Prefork {
		emptyMisses = fullBoots
	}
	b.put("prefork.handoffs", float64(d.GenericHandoffs), "count")
	b.put("prefork.refill_boots", float64(cpA.RefillBoots-cpB.RefillBoots), "count")
	b.put("prefork.empty_misses", float64(emptyMisses), "count")
	b.put("prefork.idle_mean", tr.idle.generic, "count")
	b.put("prefork.boot_failures", tr.promDelta("hotc_resilience_events_total", "kind", "prefork-boot-failure"), "count")

	b.put("image.pull_ms", histMean(tr, "hotc_coldpath_phase_ms", "phase", "pull"), "ms")
	b.put("image.pull_skipped_mb", cpA.PullSkippedMB-cpB.PullSkippedMB, "MB")
	zeroPull, pulls := 0.0, 0.0
	for _, fam := range []string{"hotc_coldpath_phase_ms", "hotc_share_boot_phase_ms"} {
		zeroPull += tr.promDelta(fam+"_bucket", "phase", "pull", "le", "1")
		pulls += tr.promDelta(fam+"_count", "phase", "pull")
	}
	b.put("image.hit_ratio", ratio(zeroPull, pulls), "ratio")
	b.put("boot.runtime_init_ms", histMean(tr, "hotc_coldpath_phase_ms", "phase", "runtime_init"), "ms")
	b.put("boot.app_init_ms", histMean(tr, "hotc_coldpath_phase_ms", "phase", "app_init"), "ms")

	shA, shB := tr.after.sys.Sharing, tr.before.sys.Sharing
	granted := float64(shA.LeasesGranted - shB.LeasesGranted)
	none := float64(shA.LeasesNoCandidate - shB.LeasesNoCandidate)
	denied := float64(shA.LeasesDenied - shB.LeasesDenied)
	b.put("sharing.leases_granted", granted, "count")
	b.put("sharing.leases_no_candidate", none, "count")
	b.put("sharing.leases_denied", denied, "count")
	b.put("sharing.grant_ratio", ratio(granted, granted+none+denied), "ratio")
	b.put("sharing.wipe_ms", histMean(tr, "hotc_share_boot_phase_ms", "phase", "wipe"), "ms")

	b.put("controller.ticks", tr.promDelta("hotc_ctl_ticks_total"), "count")
	b.put("controller.prewarmed", float64(d.Prewarmed), "count")
	b.put("controller.retired", ctlRetired, "count")
	b.put("controller.forecast_mae", forecastMAE(tr.predsBefore, tr.predsAfter), "count")
	b.put("janitor.expired", float64(d.Expired), "count")

	trA, trB := tr.after.sys.Trace, tr.before.sys.Trace
	b.put("obs.spans_kept", float64(trA.Kept-trB.Kept), "count")
	b.put("obs.spans_sampled_out", float64(trA.SampledOut-trB.SampledOut), "count")
	b.put("obs.trace_overhead_pct", 100*ratio(tr.cpuPerReq()-plain.cpuPerReq(), plain.cpuPerReq()), "%")
}

// perLayer are the metrics the result line of --trace 1 carries, in
// BENCHMARK.json order.
var perLayer = []spec{
	{"process.cpu_us_per_req", "us"},
	{"gateway.self_ms", "ms"},
	{"gateway.allocs_per_req", "count"},
	{"gateway.bytes_per_req", "B"},
	{"hop.out_ms", "ms"},
	{"hop.back_ms", "ms"},
	{"ladder.bare_http_us", "us"},
	{"ladder.watchdog_us", "us"},
	{"ladder.gateway_us", "us"},
	{"function.run_ms", "ms"},
	{"admission.wait_ms", "ms"},
	{"admission.rejected", "count"},
	{"pool.warm_hits", "count"},
	{"pool.misses", "count"},
	{"pool.hit_ratio", "ratio"},
	{"pool.cap_evictions", "count"},
	{"prefork.handoffs", "count"},
	{"prefork.refill_boots", "count"},
	{"prefork.empty_misses", "count"},
	{"prefork.idle_mean", "count"},
	{"prefork.boot_failures", "count"},
	{"image.pull_ms", "ms"},
	{"image.pull_skipped_mb", "MB"},
	{"image.hit_ratio", "ratio"},
	{"boot.runtime_init_ms", "ms"},
	{"boot.app_init_ms", "ms"},
	{"sharing.leases_granted", "count"},
	{"sharing.leases_no_candidate", "count"},
	{"sharing.leases_denied", "count"},
	{"sharing.grant_ratio", "ratio"},
	{"sharing.wipe_ms", "ms"},
	{"controller.ticks", "count"},
	{"controller.prewarmed", "count"},
	{"controller.retired", "count"},
	{"controller.forecast_mae", "count"},
	{"janitor.expired", "count"},
	{"obs.spans_kept", "count"},
	{"obs.spans_sampled_out", "count"},
	{"obs.trace_overhead_pct", "%"},
	{"client.late_ms_p95", "ms"},
	{"client.conn_wait_ms", "ms"},
	{"client.failed_fraction", "ratio"},
	{"client.spans_joined", "count"},
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// tail is the q-percentile of xs, or the maximum where the tail has
// fewer than minTail samples beyond q.
func tail(xs []float64, q float64) float64 {
	s := sorted(xs)
	if v, err := percentile(s, q); err == nil {
		return v
	}
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1]
}

// histMean is a histogram's mean observation over the window (0 when
// it observed nothing), selecting series by label pairs.
func histMean(win *window, fam string, match ...string) float64 {
	sum := win.promDelta(fam+"_sum", match...)
	n := win.promDelta(fam+"_count", match...)
	return ratio(sum, n)
}

// forecastMAE is the controllers' mean absolute one-step forecast
// error over the ticks that fell in the window, across functions.
func forecastMAE(before, after map[string]live.PredictionTrace) float64 {
	var errs []float64
	for name, a := range after {
		k := a.Ticks - before[name].Ticks
		if k > len(a.Observed) {
			k = len(a.Observed)
		}
		for i := len(a.Observed) - k; i < len(a.Observed); i++ {
			errs = append(errs, math.Abs(a.Observed[i]-a.Predicted[i]))
		}
	}
	return mean(errs)
}

// ladder times the warm rungs with sequential single-connection calls
// of the workload's seeded 256 B body: a bare loopback HTTP server
// (the floor), a pre-forked watchdog specialized with the same echo
// handler, and the gateway in front of a warm echo function. Each rung
// reports its median call in microseconds.
func (b *bench) ladder(s *hosted) (map[string]float64, error) {
	src := rng.New(b.seed).Split("ladder")
	body := make([]byte, 256)
	for i := range body {
		body[i] = byte(' ' + src.Intn(95))
	}
	echo := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(w, r.Body)
	})
	rungs := map[string]float64{}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: echo}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	rungs["ladder.bare_http_us"], err = b.rung("ladder.bare_http", "http://"+ln.Addr().String()+"/", body)
	srv.Close()
	<-served
	if err != nil {
		return nil, err
	}

	wd, err := prefork.Start(nil)
	if err != nil {
		return nil, err
	}
	wd.Specialize(echo)
	rungs["ladder.watchdog_us"], err = b.rung("ladder.watchdog", "http://"+wd.Addr()+"/", body)
	wd.Stop()
	if err != nil {
		return nil, err
	}

	if err := s.d.Deploy(live.DeploySpec{Name: "ladder-echo", Handler: "echo"}); err != nil {
		return nil, err
	}
	rungs["ladder.gateway_us"], err = b.rung("ladder.gateway", s.scrape.base+"/function/ladder-echo", body)
	return rungs, err
}

// rung times sequential echo calls to url over one connection,
// checking every reply.
func (b *bench) rung(name, url string, body []byte) (float64, error) {
	c := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer c.CloseIdleConnections()
	var buf bytes.Buffer
	times := make([]float64, 0, ladderCalls)
	for i := 0; i < ladderWarm+ladderCalls; i++ {
		t0 := time.Now()
		resp, err := c.Post(url, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		took := time.Since(t0)
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(buf.Bytes(), body) {
			b.fail("%s: call %d returned status %d and a %d-byte body", name, i, resp.StatusCode, buf.Len())
			return 0, nil
		}
		if i >= ladderWarm {
			times = append(times, float64(took)/1e3)
			b.log.add(spanRecord{Name: name, StartNs: int64(t0.Sub(b.log.t0)), DurNs: int64(took), SelfNs: int64(took)})
		}
	}
	return median(sorted(times)), nil
}

// spanRecord is one span the benchmark writes out. Its own spans (setup
// steps, client requests, ladder calls) start at StartNs from the
// beginning of the traced run. Program spans come from /system/trace,
// name their parent and start at StartNs from their parent's start.
// SelfNs is the duration minus the children's.
type spanRecord struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Function string `json:"function,omitempty"`
	Boot     string `json:"boot,omitempty"`
	TraceID  string `json:"traceId,omitempty"`
	Parent   string `json:"parent,omitempty"`
	StartNs  int64  `json:"startNs"`
	DurNs    int64  `json:"durNs"`
	SelfNs   int64  `json:"selfNs"`
}

// spanLog keeps the benchmark's spans in memory until the run ends. A nil
// log records nothing, which is how untraced runs stay span-free.
type spanLog struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	recs     []spanRecord
}

func (l *spanLog) add(rec spanRecord) {
	if l == nil {
		return
	}
	rec.Workload = l.workload
	l.mu.Lock()
	l.recs = append(l.recs, rec)
	l.mu.Unlock()
}

// step records a setup step that began at start and ends now.
func (l *spanLog) step(name string, start time.Time) {
	if l == nil {
		return
	}
	d := time.Since(start)
	l.add(spanRecord{Name: name, StartNs: int64(start.Sub(l.t0)), DurNs: int64(d), SelfNs: int64(d)})
}

// request records a client request and, when it joined one, the
// gateway's span beneath it: queue wait, the watchdog span and the
// function inside that.
func (l *spanLog) request(r *result, function string, sp *obs.Span) {
	if l == nil {
		return
	}
	dur := r.done - r.sent
	client := spanRecord{Name: "client.request", Function: function, Boot: r.mode(),
		TraceID: r.traceID, StartNs: r.sent, DurNs: dur, SelfNs: dur}
	if sp == nil {
		l.add(client)
		return
	}
	gw := sp.Total()
	client.SelfNs = dur - int64(gw)
	l.add(client)
	queue, wd, fn := sp.Queue(), gap(sp.WatchdogIn, sp.WatchdogOut), sp.Exec()
	base := sp.ClientIn
	l.add(spanRecord{Name: "gateway", Function: sp.Function, TraceID: r.traceID, Parent: "client.request",
		DurNs: int64(gw), SelfNs: int64(gw - queue - wd)})
	l.add(spanRecord{Name: "gateway.queue", Function: sp.Function, TraceID: r.traceID, Parent: "gateway",
		DurNs: int64(queue), SelfNs: int64(queue)})
	l.add(spanRecord{Name: "watchdog", Function: sp.Function, TraceID: r.traceID, Parent: "gateway",
		StartNs: int64(sp.WatchdogIn - base), DurNs: int64(wd), SelfNs: int64(wd - fn)})
	l.add(spanRecord{Name: "function", Function: sp.Function, TraceID: r.traceID, Parent: "watchdog",
		StartNs: int64(sp.FuncStart - sp.WatchdogIn), DurNs: int64(fn), SelfNs: int64(fn)})
}

// gap is to - from, or 0 when a moment is missing or out of order.
func gap(from, to time.Duration) time.Duration {
	if from == 0 || to < from {
		return 0
	}
	return to - from
}

// write dumps the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.recs {
		if err := enc.Encode(&l.recs[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
