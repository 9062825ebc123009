package live

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"hotc/internal/admission"
	"hotc/internal/image"
	"hotc/internal/obs"
	"hotc/internal/predictor"
	"hotc/internal/sharing"
)

// PoolConfig tunes the daemon gateway's warm-instance management,
// mirroring the simulated pool's knobs on the real-socket path.
type PoolConfig struct {
	// IdleTTL stops instances idle longer than this (0 = keep forever)
	// — the keep-alive enforced by the gateway's janitor.
	IdleTTL time.Duration
	// MaxIdlePerFunction caps warm instances per function (0 = no
	// cap), enforced continuously with oldest-first eviction.
	MaxIdlePerFunction int
	// ReapInterval is how often the janitor scans (default 1s).
	ReapInterval time.Duration
	// ControlInterval is the adaptive controller's period (default 2s
	// when a predictor is set).
	ControlInterval time.Duration
	// NewPredictor arms adaptive live-container control: each function
	// gets its own demand predictor and a controller goroutine that
	// prewarms or retires warm instances towards the forecast. nil
	// disables prediction. Use PredictorFactory to resolve names.
	NewPredictor func() predictor.Predictor
	// Headroom is added to every forecast before provisioning, as a
	// fraction (0.1 = +10%). Default 0.
	Headroom float64
	// BreakerThreshold arms the per-function circuit breaker: after
	// this many consecutive boot/proxy failures requests fast-fail with
	// 503 until the open window elapses. 0 disables breaking.
	BreakerThreshold int
	// BreakerOpenFor is the open window before a half-open probe
	// (default 30s when a threshold is set).
	BreakerOpenFor time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// daemon mux. Off by default: profiling endpoints expose internals
	// and should be opted into.
	EnablePprof bool
	// MaxBodyBytes bounds request bodies at the gateway and every
	// watchdog (0 = unlimited): oversized requests get HTTP 413
	// instead of ballooning a watchdog's memory.
	MaxBodyBytes int64
	// MaxInFlight caps concurrently executing requests per function;
	// past it arrivals wait in the admission queue. 0 disables
	// admission control (the pre-overload-tier behaviour).
	MaxInFlight int
	// QueueDepth caps waiting requests per tenant per function; past
	// it arrivals get 429 + Retry-After.
	QueueDepth int
	// DefaultDeadline is applied to requests without an explicit
	// X-Hotc-Deadline-Ms header (0 = none): queued requests past their
	// deadline are shed, in-flight backend work is canceled at it.
	DefaultDeadline time.Duration
	// TenantWeights sets admission fair-dispatch quanta per tenant
	// (unlisted tenants weigh 1).
	TenantWeights map[string]int
	// MemoryBudget bounds estimated warm-instance memory across all
	// functions, in bytes (0 = unlimited); the janitor reclaims from
	// the biggest holders first when exceeded.
	MemoryBudget int64
	// InstanceMemBytes overrides the per-instance estimate backing the
	// budget (default 64 MiB).
	InstanceMemBytes int64
	// DisableTracing turns live request tracing off. Tracing is on by
	// default: its sampled-out path costs a handful of atomics per
	// request and nothing on the pool hot path.
	DisableTracing bool
	// TraceCapacity sizes the span ring behind /system/trace (default
	// 2048).
	TraceCapacity int
	// TraceSampleRate is the probabilistic keep rate for unremarkable
	// successful spans (0 = the 1% default; negative = keep only
	// errors, sheds, cold starts and slow requests).
	TraceSampleRate float64
	// TraceSlowThreshold always keeps spans at or above this latency
	// (0 = the 500ms default; negative disables the slow rule).
	TraceSlowThreshold time.Duration
	// SLOLatency arms the latency objective: a 2xx request slower than
	// this is a bad event against a p99 target (0 = objective off).
	SLOLatency time.Duration
	// SLOColdStartPct arms the cold-start objective: at most this
	// percentage of served requests may pay a cold start (0 = off).
	SLOColdStartPct float64
	// Prefork arms the generic pre-forked watchdog pool: cold starts
	// specialize an already-running generic instance and pay only the
	// function-specific share of boot.
	Prefork bool
	// PreforkSize is the generic pool's target (default 4 when Prefork
	// is set).
	PreforkSize int
	// PreforkBoot is the delay one generic boot pays, always off the
	// request path (0 = instant).
	PreforkBoot time.Duration
	// DisableLayerCache turns the host layer cache off: every boot
	// with an Image pays its full pull phase. The cache is on by
	// default — sharing base layers is the point of image modelling.
	DisableLayerCache bool
	// LayerCacheCapMB bounds the layer cache with LRU eviction (0 =
	// unbounded).
	LayerCacheCapMB float64
	// BootPullFrac, BootRuntimeFrac and BootAppFrac split ColdStart
	// into the §III.B phases for functions without explicit ones. All
	// zero = the 55/30/15 defaults.
	BootPullFrac, BootRuntimeFrac, BootAppFrac float64
	// Share arms inter-function sharing: a warm miss may lease an idle
	// instance from another function instead of booting one (after a
	// ready generic, unless the lease is strictly cheaper).
	Share bool
	// SharePolicy selects the compatibility rule ("same-image", the
	// default, or "any"); see sharing.ParseMode. Unknown values fall
	// back to same-image — the CLIs validate before they get here.
	SharePolicy string
	// ShareWipe is the volume-cleanup cost each lease pays (default
	// 5ms).
	ShareWipe time.Duration
	// ShareIdleGrace is the minimum idle age before an instance may be
	// lent (default 250ms; negative = none).
	ShareIdleGrace time.Duration
}

// Daemon is the long-running HotC gateway server: the live gateway
// plus adaptive control, idle-instance expiry and an HTTP management
// API.
//
// Routes:
//
//	POST /function/{name}          invoke a function
//	GET  /system/functions         list deployed functions
//	POST /system/functions         deploy {"name","handler","coldStartMs"}
//	GET  /system/stats             gateway counters, warm pool sizes, forecasts
//	GET  /system/predictions       per-function controller prediction traces
//
// Handlers are chosen from a built-in registry by name (this is a
// demonstration daemon; it does not execute arbitrary code).
type Daemon struct {
	gw  *Gateway
	cfg PoolConfig
	reg *obs.Registry
	// images resolves DeploySpec.Image references (the standard
	// catalog); the gateway shares it for boot-time layer admission.
	images *image.Registry

	// slo is the burn-rate monitor behind /system/slo and hotc_slo_*;
	// nil when no objective is armed.
	slo *obs.SLOMonitor
	// started anchors hotc_uptime_seconds, refreshed on each scrape.
	started time.Time
	uptime  *obs.Gauge

	mu       sync.Mutex
	deployed []string
}

// Version labels hotc_build_info; release builds override it via
// -ldflags "-X hotc/internal/faas/live.Version=v1.2.3".
var Version = "dev"

// Builtin handler names deployable through the API.
func Builtins() []string { return []string{"echo", "qr", "sleep", "upper", "wordcount"} }

// builtinFunction resolves a builtin by name into its handler fields
// (the caller fills in Name and ColdStart). echo, upper and wordcount
// are streaming: they process the body chunk-wise through pooled
// buffers and never hold the full payload. qr stays a []byte handler
// deliberately — it keeps the pooled compat shim exercised on the
// daemon path.
func builtinFunction(name string) (Function, error) {
	switch name {
	case "echo":
		return Function{Stream: func(r io.Reader, w io.Writer) error {
			_, err := copyPooled(w, r)
			return err
		}}, nil
	case "upper":
		return Function{Stream: upperStream}, nil
	case "wordcount":
		return Function{Stream: wordcountStream}, nil
	case "qr":
		return Function{Handler: func(b []byte) ([]byte, error) {
			s := strings.TrimSpace(string(b))
			if s == "" {
				return nil, fmt.Errorf("empty input")
			}
			return []byte("QR(" + s + ")"), nil
		}}, nil
	case "sleep":
		// Constant-service-time handler for load benches: the body is
		// the service time in milliseconds (default 20). It occupies
		// its instance for the whole interval, which is what makes
		// saturation reproducible — throughput is instances/latency,
		// not CPU-bound.
		return Function{Handler: func(b []byte) ([]byte, error) {
			ms := 20
			if s := strings.TrimSpace(string(b)); s != "" {
				n, err := strconv.Atoi(s)
				if err != nil || n < 0 || n > 10_000 {
					return nil, fmt.Errorf("sleep: want milliseconds 0..10000, got %q", s)
				}
				ms = n
			}
			time.Sleep(time.Duration(ms) * time.Millisecond)
			return []byte(fmt.Sprintf("slept %dms", ms)), nil
		}}, nil
	default:
		return Function{}, fmt.Errorf("live: unknown builtin handler %q (have %v)", name, Builtins())
	}
}

// upperStream uppercases the body chunk-wise through a pooled buffer:
// ASCII chunks (the common case) are rewritten in place with zero
// allocations; chunks containing multi-byte runes fall back to
// bytes.ToUpper, with an incomplete trailing rune carried into the
// next read so no rune is ever split across a chunk boundary.
func upperStream(r io.Reader, w io.Writer) error {
	bp := copyBufPool.Get().(*[]byte)
	defer copyBufPool.Put(bp)
	buf := *bp
	keep := 0
	for {
		n, err := r.Read(buf[keep:])
		n += keep
		keep = 0
		chunk := buf[:n]
		if err == nil {
			// A trailing incomplete rune waits for its continuation
			// bytes — even when it is all we have (tiny reads).
			if tail := incompleteRuneTail(chunk); tail > 0 {
				keep = tail
				chunk = chunk[:n-tail]
			}
		}
		if len(chunk) > 0 {
			out := chunk
			if asciiOnly(chunk) {
				upperASCII(chunk)
			} else {
				out = bytes.ToUpper(chunk)
			}
			if _, werr := w.Write(out); werr != nil {
				return werr
			}
		}
		if keep > 0 {
			copy(buf, buf[n-keep:n])
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// incompleteRuneTail reports how many trailing bytes of p form the
// start of a UTF-8 rune whose continuation bytes have not arrived yet
// (0 when p ends on a rune boundary or in bytes that can never
// complete a rune).
func incompleteRuneTail(p []byte) int {
	for i := 1; i <= utf8.UTFMax && i <= len(p); i++ {
		b := p[len(p)-i]
		if b < utf8.RuneSelf {
			return 0 // ASCII: a boundary
		}
		if b&0xC0 == 0xC0 { // leading byte of a multi-byte rune
			var need int
			switch {
			case b&0xE0 == 0xC0:
				need = 2
			case b&0xF0 == 0xE0:
				need = 3
			case b&0xF8 == 0xF0:
				need = 4
			default:
				return 0 // invalid lead byte: pass through as-is
			}
			if i < need {
				return i // rune truncated at the chunk end
			}
			return 0
		}
		// 0b10xxxxxx continuation byte: keep scanning backwards.
	}
	return 0
}

func asciiOnly(p []byte) bool {
	for _, b := range p {
		if b >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

func upperASCII(p []byte) {
	for i, b := range p {
		if 'a' <= b && b <= 'z' {
			p[i] = b - ('a' - 'A')
		}
	}
}

// wordcountStream counts whitespace-separated words without ever
// holding more than one token: a bufio scanner over a pooled buffer,
// strconv.Itoa for the allocation-free reply.
func wordcountStream(r io.Reader, w io.Writer) error {
	bp := copyBufPool.Get().(*[]byte)
	defer copyBufPool.Put(bp)
	sc := bufio.NewScanner(r)
	sc.Buffer(*bp, bufio.MaxScanTokenSize)
	sc.Split(bufio.ScanWords)
	count := 0
	for sc.Scan() {
		count++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	_, err := io.WriteString(w, strconv.Itoa(count))
	return err
}

// NewDaemon wraps a reusing gateway with adaptive control, pool
// management, a metrics registry and (optionally) a circuit breaker.
func NewDaemon(cfg PoolConfig) *Daemon {
	d := &Daemon{
		gw:      NewGateway(true),
		cfg:     cfg,
		reg:     obs.New(),
		images:  image.StandardCatalog(),
		started: time.Now(),
	}
	d.gw.Instrument(d.reg)
	d.gw.SetMaxBodyBytes(cfg.MaxBodyBytes)
	var cache *image.Cache
	if !cfg.DisableLayerCache {
		if cfg.LayerCacheCapMB > 0 {
			cache = image.NewCacheWithCap(cfg.LayerCacheCapMB)
		} else {
			cache = image.NewCache()
		}
	}
	d.gw.EnableColdPath(ColdPathConfig{
		Registry:    d.images,
		Cache:       cache,
		PullFrac:    cfg.BootPullFrac,
		RuntimeFrac: cfg.BootRuntimeFrac,
		AppFrac:     cfg.BootAppFrac,
		Prefork:     cfg.Prefork,
		PreforkSize: cfg.PreforkSize,
		PreforkBoot: cfg.PreforkBoot,
	})
	d.reg.GaugeVec("hotc_build_info",
		"Build metadata: constant 1, labeled by gateway version and Go runtime version.",
		"version", "go_version").With(Version, runtime.Version()).Set(1)
	d.uptime = d.reg.Gauge("hotc_uptime_seconds",
		"Seconds since the daemon started, refreshed on scrape.")
	if !cfg.DisableTracing {
		d.gw.EnableTracing(TracingConfig{
			Capacity:      cfg.TraceCapacity,
			SampleRate:    cfg.TraceSampleRate,
			SlowThreshold: cfg.TraceSlowThreshold,
		})
	}
	if cfg.SLOLatency > 0 || cfg.SLOColdStartPct > 0 {
		d.slo = obs.NewSLOMonitor(obs.SLOConfig{
			LatencyThreshold: cfg.SLOLatency,
			ColdStartBudget:  cfg.SLOColdStartPct / 100,
		})
		d.slo.Instrument(d.reg)
		d.gw.SetSLO(d.slo)
	}
	if cfg.Share {
		mode, err := sharing.ParseMode(cfg.SharePolicy)
		if err != nil {
			mode = sharing.ModeSameImage
		}
		d.gw.EnableSharing(SharingConfig{
			Policy:    sharing.Policy{Mode: mode},
			Wipe:      cfg.ShareWipe,
			IdleGrace: cfg.ShareIdleGrace,
		})
	}
	d.gw.EnableControl(ControlConfig{
		Interval:        cfg.ControlInterval,
		NewPredictor:    cfg.NewPredictor,
		Headroom:        cfg.Headroom,
		KeepAlive:       cfg.IdleTTL,
		MaxWarm:         cfg.MaxIdlePerFunction,
		JanitorInterval: cfg.ReapInterval,
	})
	if cfg.BreakerThreshold > 0 {
		d.gw.EnableBreaker(cfg.BreakerThreshold, cfg.BreakerOpenFor)
	}
	if cfg.MaxInFlight > 0 || cfg.DefaultDeadline > 0 || cfg.MemoryBudget > 0 {
		d.gw.EnableAdmission(AdmissionConfig{
			MaxInFlight:      cfg.MaxInFlight,
			QueueDepth:       cfg.QueueDepth,
			DefaultDeadline:  cfg.DefaultDeadline,
			TenantWeights:    cfg.TenantWeights,
			MemoryBudget:     cfg.MemoryBudget,
			InstanceMemBytes: cfg.InstanceMemBytes,
		})
	}
	return d
}

// Registry exposes the daemon's metrics registry (served at /metrics).
func (d *Daemon) Registry() *obs.Registry { return d.reg }

// DeploySpec is the management-API deployment payload.
type DeploySpec struct {
	// Name routes requests.
	Name string `json:"name"`
	// Handler is a builtin handler name; see Builtins.
	Handler string `json:"handler"`
	// ColdStartMs is the artificial instance boot delay, decomposed
	// into pull/runtime-init/app-init by the daemon's phase split
	// unless the explicit phase fields below are set.
	ColdStartMs int `json:"coldStartMs"`
	// Image, optional, names the function's container image in the
	// standard catalog ("python:3.8", "node:10", ...): boots then skip
	// the pull share of layers already cached on the host.
	Image string `json:"image,omitempty"`
	// PullMs, RuntimeInitMs and AppInitMs, when any is set, spell the
	// boot phases out explicitly instead of splitting ColdStartMs.
	PullMs        int `json:"pullMs,omitempty"`
	RuntimeInitMs int `json:"runtimeInitMs,omitempty"`
	AppInitMs     int `json:"appInitMs,omitempty"`
	// Shareable is the per-deploy sharing opt-out (default true):
	// false keeps this function's instances out of inter-function
	// sharing on both sides.
	Shareable *bool `json:"shareable,omitempty"`
	// MemoryMB declares the function's memory class for the sharing
	// policy (0 = unconstrained).
	MemoryMB int `json:"memoryMB,omitempty"`
}

// Deploy registers a function from a spec.
func (d *Daemon) Deploy(spec DeploySpec) error {
	fn, err := builtinFunction(spec.Handler)
	if err != nil {
		return err
	}
	if spec.ColdStartMs < 0 {
		return fmt.Errorf("live: negative cold start")
	}
	if spec.PullMs < 0 || spec.RuntimeInitMs < 0 || spec.AppInitMs < 0 {
		return fmt.Errorf("live: negative boot phase")
	}
	if spec.Image != "" {
		// An unknown image would silently degrade to no-image boots
		// (full pull every time); refuse it up front instead.
		if _, err := d.images.Lookup(spec.Image); err != nil {
			return err
		}
	}
	fn.Name = spec.Name
	fn.ColdStart = time.Duration(spec.ColdStartMs) * time.Millisecond
	fn.Image = spec.Image
	fn.Pull = time.Duration(spec.PullMs) * time.Millisecond
	fn.RuntimeInit = time.Duration(spec.RuntimeInitMs) * time.Millisecond
	fn.AppInit = time.Duration(spec.AppInitMs) * time.Millisecond
	fn.NoShare = spec.Shareable != nil && !*spec.Shareable
	if spec.MemoryMB < 0 {
		return fmt.Errorf("live: negative memoryMB")
	}
	fn.MemoryMB = spec.MemoryMB
	if err := d.gw.Register(fn); err != nil {
		return err
	}
	d.mu.Lock()
	d.deployed = append(d.deployed, spec.Name)
	sort.Strings(d.deployed)
	d.mu.Unlock()
	return nil
}

// Start binds the daemon to a random loopback port and begins the
// control loops. It returns the base URL.
func (d *Daemon) Start() (string, error) {
	return d.StartOn("127.0.0.1:0")
}

// StartOn binds the daemon to an explicit address. The gateway's
// janitor and per-function controllers launch with it.
func (d *Daemon) StartOn(addr string) (string, error) {
	return d.gw.startOn(addr, d.routes())
}

// Stop shuts down the HTTP server, the control loops and all warm
// instances.
func (d *Daemon) Stop() {
	d.gw.Stop()
}

// Stats reports gateway counters.
func (d *Daemon) Stats() Stats { return d.gw.Stats() }

// WarmInstances reports the warm pool size for a function.
func (d *Daemon) WarmInstances(name string) int { return d.gw.WarmInstances(name) }

func (d *Daemon) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/function/", d.gw.handle)
	mux.HandleFunc("/system/functions", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			d.mu.Lock()
			names := append([]string(nil), d.deployed...)
			d.mu.Unlock()
			writeJSON(w, names)
		case http.MethodPost:
			var spec DeploySpec
			if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if err := d.Deploy(spec); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.WriteHeader(http.StatusAccepted)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/system/stats", func(w http.ResponseWriter, r *http.Request) {
		d.mu.Lock()
		names := append([]string(nil), d.deployed...)
		d.mu.Unlock()
		warm := map[string]int{}
		for _, n := range names {
			warm[n] = d.gw.WarmInstances(n)
		}
		// resilience, warmAges, forecast and admission share their
		// source of truth with the /metrics endpoint (the same gateway
		// counters, idle lists, controller state and queues).
		writeJSON(w, struct {
			Version       string                     `json:"version"`
			GoVersion     string                     `json:"goVersion"`
			UptimeSeconds float64                    `json:"uptimeSeconds"`
			Draining      bool                       `json:"draining"`
			Stats         Stats                      `json:"stats"`
			Warm          map[string]int             `json:"warmInstances"`
			Forecast      map[string]float64         `json:"forecast"`
			Resilience    map[string]int             `json:"resilience"`
			WarmAges      map[string][]float64       `json:"warmAgeSeconds"`
			Admission     map[string]admission.Stats `json:"admission,omitempty"`
			WarmMemory    WarmMemoryStats            `json:"warmMemory,omitempty"`
			ColdPath      ColdPathStats              `json:"coldPath"`
			Sharing       SharingStats               `json:"sharing"`
			Trace         TraceStats                 `json:"trace"`
		}{Version, runtime.Version(), time.Since(d.started).Seconds(),
			d.gw.Draining(), d.gw.Stats(), warm, d.gw.Forecasts(),
			d.gw.ResilienceCounters(), d.gw.WarmAges(time.Now()),
			d.gw.AdmissionStats(), d.gw.WarmMemory(), d.gw.ColdPathStats(),
			d.gw.SharingStats(), d.gw.TraceStats()})
	})
	mux.HandleFunc("/system/drain", func(w http.ResponseWriter, r *http.Request) {
		// POST drains (stop accepting placements, finish in-flight),
		// DELETE undrains, GET reports. The flag also surfaces in
		// /system/stats, which is what the router's poller watches.
		switch r.Method {
		case http.MethodPost:
			d.gw.SetDraining(true)
		case http.MethodDelete:
			d.gw.SetDraining(false)
		case http.MethodGet:
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, struct {
			Draining bool `json:"draining"`
		}{d.gw.Draining()})
	})
	mux.HandleFunc("/system/trace", func(w http.ResponseWriter, r *http.Request) {
		spans := d.gw.TraceSpans()
		if v := r.URL.Query().Get("limit"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n >= 0 && n < len(spans) {
				spans = spans[:n]
			}
		}
		if r.URL.Query().Get("format") == "jsonl" {
			// The same JSONL shape the sim writes and `hotc-trace
			// spans` reads: one span per line.
			w.Header().Set("Content-Type", "application/x-ndjson")
			obs.WriteSpans(w, spans)
			return
		}
		writeJSON(w, struct {
			Trace TraceStats `json:"trace"`
			Spans []obs.Span `json:"spans"`
		}{d.gw.TraceStats(), spans})
	})
	mux.HandleFunc("/system/slo", func(w http.ResponseWriter, r *http.Request) {
		if d.slo == nil {
			writeJSON(w, obs.SLOReport{})
			return
		}
		// Sync refreshes the hotc_slo_* gauges from the same pass that
		// builds the JSON, so the two views never disagree.
		writeJSON(w, d.slo.Sync())
	})
	mux.HandleFunc("/system/predictions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, d.gw.PredictionTraces())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		// Scrape-time refresh: uptime and the SLO burn-rate gauges are
		// computed views, made exactly as fresh as the scrape.
		d.uptime.Set(time.Since(d.started).Seconds())
		if d.slo != nil {
			d.slo.Sync()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		d.reg.WritePrometheus(w)
	})
	if d.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// reapOnce applies the keep-alive and cap policy once; tests call it
// with deterministic now values. The periodic scan is the gateway's
// janitor goroutine.
func (d *Daemon) reapOnce(now time.Time) {
	d.gw.janitorOnce(now)
}
