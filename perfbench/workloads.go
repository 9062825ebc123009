package main

import (
	"fmt"
	"math"
	"time"

	"hotc/internal/faas/live"
	"hotc/internal/rng"
)

// workload is one traffic mix against a self-hosted daemon: the daemon
// configuration, the deployed functions, and how the seeded arrival
// schedule is drawn.
type workload struct {
	name string
	// config is the daemon configuration (hotcd's defaults plus the
	// workload's overrides).
	config func() live.PoolConfig
	fns    []live.DeploySpec
	// rate is the open-loop mean arrival rate, in requests per second.
	rate float64
	// weights skew the open-loop function choice (nil = uniform). They
	// only apply without phases.
	weights []int
	// period and on gate open-loop arrivals: function i only receives
	// requests while (t - i*period/len(fns)) mod period < on. Zero
	// period = always active.
	period, on time.Duration
	// sleepMs is the sleep builtin's service time.
	sleepMs int
}

// hotcdDefaults mirrors the flag defaults of cmd/hotcd, so a workload
// that overrides nothing runs the daemon as an operator would start it.
func hotcdDefaults() live.PoolConfig {
	pred, err := live.PredictorFactory("es+markov")
	if err != nil {
		panic(err)
	}
	return live.PoolConfig{
		IdleTTL:            5 * time.Minute,
		MaxIdlePerFunction: 8,
		ReapInterval:       time.Second,
		ControlInterval:    2 * time.Second,
		NewPredictor:       pred,
		BreakerThreshold:   5,
		BreakerOpenFor:     30 * time.Second,
		MaxBodyBytes:       32 << 20,
		MaxInFlight:        128,
		QueueDepth:         256,
		TraceCapacity:      2048,
		TraceSampleRate:    0.01,
		TraceSlowThreshold: 500 * time.Millisecond,
		SLOLatency:         250 * time.Millisecond,
		SLOColdStartPct:    5,
		PreforkSize:        4,
		PreforkBoot:        120 * time.Millisecond,
		SharePolicy:        "same-image",
		ShareWipe:          5 * time.Millisecond,
		ShareIdleGrace:     250 * time.Millisecond,
	}
}

var workloads = map[string]*workload{
	// Skewed multi-function traffic over two images with a short
	// keep-alive: the cold path (prefork, layer cache, sharing leases,
	// janitor) decides a third of the requests and the whole tail.
	"cold-skew": {
		name: "cold-skew",
		config: func() live.PoolConfig {
			c := hotcdDefaults()
			c.NewPredictor = nil
			c.IdleTTL = 250 * time.Millisecond
			c.Prefork = true
			c.Share = true
			c.ShareIdleGrace = 50 * time.Millisecond
			return c
		},
		fns:     sleepFns("skew", 8, 400, "python:3.8", "node:10"),
		rate:    20,
		weights: []int{16, 8, 4, 2, 1, 1, 1, 1},
		sleepMs: 5,
	},
	// Staggered periodic activity with the controller on and a long
	// keep-alive: Algorithm 3 alone fills the pool by prewarm and
	// drains it by retire.
	"periodic-burst": {
		name: "periodic-burst",
		config: func() live.PoolConfig {
			c := hotcdDefaults()
			c.ControlInterval = time.Second
			return c
		},
		fns:     sleepFns("burst", 6, 300),
		rate:    20,
		period:  12 * time.Second,
		on:      4 * time.Second,
		sleepMs: 20,
	},
}

// sleepFns deploys n sleep functions named prefix-i, cycling through
// images (none when no image is given).
func sleepFns(prefix string, n, coldMs int, images ...string) []live.DeploySpec {
	out := make([]live.DeploySpec, n)
	for i := range out {
		out[i] = live.DeploySpec{Name: fmt.Sprintf("%s-%d", prefix, i), Handler: "sleep", ColdStartMs: coldMs}
		if len(images) > 0 {
			out[i].Image = images[i%len(images)]
		}
	}
	return out
}

// arrival is one open-loop request: when it is due, measured from the
// start of the window, and which function it calls.
type arrival struct {
	At time.Duration
	Fn int
}

// schedule draws the open-loop arrivals of one window from seed:
// round(rate*window) arrivals whose gaps are exponential draws scaled
// to fill the window exactly — a Poisson process conditioned on its
// count, so every seed offers the same load. Without phases, functions
// are dealt from seeded shuffles of a deck holding each function as
// many times as its weight, so every seed calls each function in the
// same proportion and only the order varies. With phases, each arrival
// calls one of the functions active at that moment, chosen uniformly.
// The same seed always yields the same schedule.
func (w *workload) schedule(seed int64, window time.Duration) []arrival {
	root := rng.New(seed)
	gaps, pick := root.Split("arrivals"), root.Split("functions")
	n := int(math.Round(w.rate * window.Seconds()))
	cum := make([]float64, n+1)
	total := 0.0
	for i := range cum {
		total += gaps.Exp(1)
		cum[i] = total
	}
	var deck, active []int
	for i := range w.fns {
		for k := 0; k < w.weight(i); k++ {
			deck = append(deck, i)
		}
	}
	out := make([]arrival, 0, n)
	for j, c := range cum[:n] {
		t := time.Duration(c / total * float64(window))
		if w.period == 0 {
			if j%len(deck) == 0 {
				pick.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
			}
			out = append(out, arrival{At: t, Fn: deck[j%len(deck)]})
			continue
		}
		active = active[:0]
		for i := range w.fns {
			if w.activeAt(i, t) {
				active = append(active, i)
			}
		}
		if len(active) > 0 {
			out = append(out, arrival{At: t, Fn: active[pick.Intn(len(active))]})
		}
	}
	return out
}

func (w *workload) weight(i int) int {
	if w.weights == nil {
		return 1
	}
	return w.weights[i]
}

func (w *workload) activeAt(i int, t time.Duration) bool {
	if w.period == 0 {
		return true
	}
	phase := time.Duration(i) * w.period / time.Duration(len(w.fns))
	return ((t-phase)%w.period+w.period)%w.period < w.on
}

// inputs are the request bodies and expected replies, one per function.
type inputs struct {
	body, want [][]byte
}

// makeInputs builds each function's request body, the sleep builtin's
// service time, and the reply it must come back with, "slept Nms".
func (w *workload) makeInputs() inputs {
	in := inputs{body: make([][]byte, len(w.fns)), want: make([][]byte, len(w.fns))}
	for i := range w.fns {
		in.body[i] = []byte(fmt.Sprint(w.sleepMs))
		in.want[i] = []byte(fmt.Sprintf("slept %dms", w.sleepMs))
	}
	return in
}
