package main

import (
	"bytes"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hotc/internal/faas/live"
)

// result is one request as the client saw it. Times are nanoseconds
// from the start of the window it belongs to.
type result struct {
	fn int
	// due is when the request was scheduled.
	due, sent, done int64
	// connWait is how long a due request waited for a free connection.
	connWait time.Duration
	// status is the HTTP status, 0 on a transport error.
	status int
	reused bool
	// boot is X-Hotc-Boot on a non-reused response: cold|generic|rented.
	boot    string
	traceID string
	bodyOK  bool
}

func (r *result) ok() bool { return r.status >= 200 && r.status < 300 }

// latency is the request's latency in milliseconds, timed from when it
// was due.
func (r *result) latency() float64 { return float64(r.done-r.due) / 1e6 }

// mode names how the serving instance came to exist: warm, or the
// X-Hotc-Boot value of a non-reused response.
func (r *result) mode() string {
	if r.reused {
		return "warm"
	}
	return r.boot
}

// client is the load generator's side of the gateway: one shared
// transport capped at a fixed number of connections.
type client struct {
	http *http.Client
	urls []string
	in   inputs
	// keepTraceIDs keeps each reply's X-Hotc-Trace-Id for the span
	// join; untraced runs drop it so results hold no heap pointers.
	keepTraceIDs bool
}

func newClient(base string, fns []live.DeploySpec, in inputs, conns int, keepTraceIDs bool) *client {
	c := &client{
		keepTraceIDs: keepTraceIDs,
		http: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
		in: in,
	}
	for _, fn := range fns {
		c.urls = append(c.urls, base+"/function/"+fn.Name)
	}
	return c
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request to function fn and records its outcome. buf is
// the worker's reusable response buffer.
func (c *client) do(fn int, buf *bytes.Buffer, r *result, start time.Time) {
	r.fn = fn
	req, err := http.NewRequest(http.MethodPost, c.urls[fn], bytes.NewReader(c.in.body[fn]))
	if err != nil {
		r.done = int64(time.Since(start))
		return
	}
	r.sent = int64(time.Since(start))
	resp, err := c.http.Do(req)
	if err != nil {
		r.done = int64(time.Since(start))
		return
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	r.done = int64(time.Since(start))
	if err != nil {
		return
	}
	r.status = resp.StatusCode
	r.reused = resp.Header.Get("X-Hotc-Reused") == "true"
	if !r.reused {
		r.boot = resp.Header.Get(live.BootHeader)
	}
	if c.keepTraceIDs {
		r.traceID = resp.Header.Get(live.TraceIDHeader)
	}
	r.bodyOK = bytes.Equal(buf.Bytes(), c.in.want[fn])
}

// runOpen plays an open-loop schedule with a fixed set of workers,
// one connection each. A worker takes the next arrival, sleeps until it
// is due and sends it; an arrival that falls due while every worker is
// busy waits for the first free one, and that wait is recorded.
// Latency counts from the due time, so generator stalls and connection
// waits show up in it.
func (c *client) runOpen(sched []arrival, workers int) ([]result, time.Time) {
	results := make([]result, len(sched))
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i].At)
				free := time.Now()
				if d := due.Sub(free); d > 0 {
					time.Sleep(d)
				} else {
					results[i].connWait = -d
				}
				c.do(sched[i].Fn, &buf, &results[i], start)
				results[i].due = int64(sched[i].At)
			}
		}()
	}
	wg.Wait()
	return results, start
}

// runList sends one request per entry of fns, workers at a time, as
// fast as they complete (setup warm-up).
func (c *client) runList(fns []int, workers int) []result {
	sched := make([]arrival, len(fns))
	for i, fn := range fns {
		sched[i].Fn = fn
	}
	results, _ := c.runOpen(sched, workers)
	return results
}

// idleSampler time-averages idle capacity on a fixed tick: warm
// instances parked in every function's pool, and idle generic
// pre-forked watchdogs. It reads the daemon's accessors in-process, so
// sampling costs no connection.
type idleSampler struct {
	stop chan struct{}
	done chan struct{}
	// warm and generic are the sample means, valid after finish.
	warm, generic float64
}

func startIdleSampler(d *live.Daemon, fns []live.DeploySpec, every time.Duration) *idleSampler {
	s := &idleSampler{stop: make(chan struct{}), done: make(chan struct{})}
	generic := d.Registry().Gauge("hotc_coldpath_generic_idle", "")
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		var n, warm, gen float64
		for {
			select {
			case <-s.stop:
				s.warm, s.generic = ratio(warm, n), ratio(gen, n)
				return
			case <-t.C:
				for _, fn := range fns {
					warm += float64(d.WarmInstances(fn.Name))
				}
				gen += generic.Value()
				n++
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for its goroutine.
func (s *idleSampler) finish() {
	close(s.stop)
	<-s.done
}
