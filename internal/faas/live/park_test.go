package live

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hotc/internal/obs"
)

// gatedFn answers at once, except that a "hold" body blocks its
// instance until gate closes. Boots pay only the app-init phase.
func gatedFn(name string, app time.Duration, gate <-chan struct{}) Function {
	return Function{
		Name:    name,
		AppInit: app,
		Handler: func(b []byte) ([]byte, error) {
			if string(b) == "hold" {
				<-gate
			}
			return b, nil
		},
	}
}

// parkReply is one asynchronous request's outcome.
type parkReply struct {
	status       int
	reused, boot string
	rejected     string
	body         string
	took         time.Duration
	err          error
}

// postAsync sends one request on its own goroutine.
func postAsync(ctx context.Context, url, body string) <-chan parkReply {
	out := make(chan parkReply, 1)
	go func() {
		start := time.Now()
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			out <- parkReply{err: err, took: time.Since(start)}
			return
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		out <- parkReply{
			status:   resp.StatusCode,
			reused:   resp.Header.Get("X-Hotc-Reused"),
			boot:     resp.Header.Get(BootHeader),
			rejected: resp.Header.Get(RejectedHeader),
			body:     string(data),
			took:     time.Since(start),
			err:      err,
		}
	}()
	return out
}

// waitShard polls the function's shard until cond holds.
func waitShard(t *testing.T, g *Gateway, name, what string, cond func(s *shard) bool) {
	t.Helper()
	s := g.shard(name)
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		ok := cond(s)
		s.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// setService pins the shard's measured service time, so a test
// decides whether and how long a miss parks instead of the host's
// timing.
func setService(g *Gateway, name string, svc time.Duration) {
	s := g.shard(name)
	s.mu.Lock()
	s.svc = svc
	s.mu.Unlock()
}

// checkQuiescent asserts a shard with no request in flight holds no
// parked request and no handed-out instance.
func checkQuiescent(t *testing.T, g *Gateway, name string) {
	t.Helper()
	s := g.shard(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.serving != 0 || s.ctl.inFlight != 0 || len(s.parked) != 0 {
		t.Fatalf("%s not quiescent: serving %d, inFlight %d, parked %d",
			name, s.serving, s.ctl.inFlight, len(s.parked))
	}
}

// parkGateway starts an instrumented gateway with gatedFn "f" and one
// warm instance. The warm-up boot is instant; the function is then
// re-registered with the given app init and the shard's service time
// pinned to svc, so a miss behind a busy instance parks for 2×svc.
func parkGateway(t *testing.T, app, svc time.Duration, gate <-chan struct{}) (*Gateway, string) {
	t.Helper()
	g := NewGateway(true)
	g.Instrument(obs.New())
	if err := g.Register(gatedFn("f", 0, gate)); err != nil {
		t.Fatal(err)
	}
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Stop)
	post(t, base+"/function/f", "warm-up")
	if err := g.Register(gatedFn("f", app, gate)); err != nil {
		t.Fatal(err)
	}
	setService(g, "f", svc)
	return g, base
}

// holdInstance starts a "hold" request and waits until it occupies
// the function's instance.
func holdInstance(t *testing.T, g *Gateway, base string) <-chan parkReply {
	t.Helper()
	a := postAsync(context.Background(), base+"/function/f", "hold")
	waitShard(t, g, "f", "the hold request to be served", func(s *shard) bool { return s.serving == 1 })
	return a
}

// The headline behaviour: a miss behind a serving instance waits for
// it instead of booting, is handed it on release, and answers as a
// warm reuse — counted in Stats.Parked, hotc_pool_park_total, the wait
// histogram, /system/stats and a "parked" span event.
func TestParkHandsBusyInstance(t *testing.T) {
	d, base := startDaemon(t, PoolConfig{TraceSampleRate: 1})
	gate := make(chan struct{})
	g := d.gw
	if err := g.Register(gatedFn("f", 0, gate)); err != nil {
		t.Fatal(err)
	}
	post(t, base+"/function/f", "warm-up")
	// A miss that fell through would pay this 3s app init: failure is
	// loud, and the 2s wait leaves the hand-off ample slack.
	if err := g.Register(gatedFn("f", 3*time.Second, gate)); err != nil {
		t.Fatal(err)
	}
	setService(g, "f", time.Second)

	a := holdInstance(t, g, base)
	b := postAsync(context.Background(), base+"/function/f", "parked")
	waitShard(t, g, "f", "the miss to park", func(s *shard) bool { return len(s.parked) == 1 })
	close(gate)
	ra, rb := <-a, <-b
	if ra.err != nil || ra.status != http.StatusOK {
		t.Fatalf("hold request: %+v", ra)
	}
	if rb.err != nil || rb.status != http.StatusOK || rb.body != "parked" {
		t.Fatalf("parked request: %+v", rb)
	}
	if rb.reused != "true" || rb.boot != "" {
		t.Fatalf("parked request: X-Hotc-Reused %q, X-Hotc-Boot %q; want a warm reuse", rb.reused, rb.boot)
	}

	st := g.Stats()
	if st.Requests != 3 || st.ColdStarts != 1 || st.Reused != 2 || st.Parked != 1 {
		t.Fatalf("stats = %+v, want 3 requests: 1 cold, 2 reused of which 1 parked", st)
	}
	ins := g.obs.Load()
	if h, to, c := ins.parkHanded.Value(), ins.parkTimeout.Value(), ins.parkCanceled.Value(); h != 1 || to != 0 || c != 0 {
		t.Fatalf("hotc_pool_park_total handed/timeout/canceled = %g/%g/%g, want 1/0/0", h, to, c)
	}
	if n := ins.parkWait.Count(); n != 1 {
		t.Fatalf("hotc_pool_park_wait_ms count = %d, want 1", n)
	}
	if g.WarmInstances("f") != 1 {
		t.Fatalf("warm = %d, want the one instance back in the pool", g.WarmInstances("f"))
	}
	checkQuiescent(t, g, "f")

	resp, err := http.Get(base + "/system/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sys struct {
		Stats Stats `json:"stats"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sys)
	resp.Body.Close()
	if err != nil || sys.Stats.Parked != 1 {
		t.Fatalf("/system/stats Parked = %d (err %v), want 1", sys.Stats.Parked, err)
	}
	found := false
	for _, sp := range g.TraceSpans() {
		for _, ev := range sp.Events {
			if ev.Kind == "parked" && ev.Detail == parkHanded && sp.Reused {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no reused span carries a parked/handed event")
	}
}

// Booting siblings are not serving: a miss while the function's only
// instance is still booting boots its own instead of parking.
func TestParkSkipsBootingSiblings(t *testing.T) {
	g := NewGateway(true)
	g.Instrument(obs.New())
	if err := g.Register(gatedFn("f", 300*time.Millisecond, nil)); err != nil {
		t.Fatal(err)
	}
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	setService(g, "f", 100*time.Millisecond)

	a := postAsync(context.Background(), base+"/function/f", "a")
	waitShard(t, g, "f", "the first boot to start", func(s *shard) bool { return s.ctl.inFlight == 1 })
	b := postAsync(context.Background(), base+"/function/f", "b")
	for _, r := range []parkReply{<-a, <-b} {
		if r.err != nil || r.status != http.StatusOK || r.reused != "false" {
			t.Fatalf("reply %+v, want a cold start", r)
		}
	}
	if st := g.Stats(); st.ColdStarts != 2 || st.Parked != 0 {
		t.Fatalf("stats = %+v, want 2 cold starts and no park", st)
	}
	if n := g.obs.Load().parkWait.Count(); n != 0 {
		t.Fatalf("%d parks recorded, want none", n)
	}
	checkQuiescent(t, g, "f")
}

// A parked miss whose wait runs out falls through to the boot ladder.
func TestParkTimeoutFallsThroughToBoot(t *testing.T) {
	gate := make(chan struct{})
	g, base := parkGateway(t, 50*time.Millisecond, 20*time.Millisecond, gate)

	a := holdInstance(t, g, base)
	rb := <-postAsync(context.Background(), base+"/function/f", "late")
	close(gate)
	ra := <-a
	if ra.err != nil || ra.status != http.StatusOK {
		t.Fatalf("hold request: %+v", ra)
	}
	if rb.err != nil || rb.status != http.StatusOK || rb.reused != "false" || rb.boot != "cold" {
		t.Fatalf("timed-out park: %+v, want a full cold boot", rb)
	}
	if rb.took < 40*time.Millisecond {
		t.Fatalf("timed-out park answered in %v, before its 40ms wait", rb.took)
	}
	ins := g.obs.Load()
	if h, to := ins.parkHanded.Value(), ins.parkTimeout.Value(); h != 0 || to != 1 {
		t.Fatalf("park handed/timeout = %g/%g, want 0/1", h, to)
	}
	if st := g.Stats(); st.Requests != st.Reused+st.ColdStarts || st.ColdStarts != 2 || st.Parked != 0 {
		t.Fatalf("stats = %+v, want 2 cold starts and no park", st)
	}
	if got := g.WarmInstances("f"); got != 2 {
		t.Fatalf("warm = %d, want both instances pooled", got)
	}
	checkQuiescent(t, g, "f")
}

// A client that hangs up while parked leaves the queue: nothing is
// handed to it, and the busy instance returns to the pool on release.
func TestParkClientCancelLosesNoInstance(t *testing.T) {
	gate := make(chan struct{})
	g, base := parkGateway(t, 3*time.Second, time.Second, gate)

	a := holdInstance(t, g, base)
	// An empty body lets the server watch the connection while the
	// request waits, so the disconnect reaches the request context.
	ctx, cancel := context.WithCancel(context.Background())
	b := postAsync(ctx, base+"/function/f", "")
	waitShard(t, g, "f", "the miss to park", func(s *shard) bool { return len(s.parked) == 1 })
	cancel()
	if r := <-b; r.err == nil {
		t.Fatalf("canceled request got a reply: %+v", r)
	}
	waitShard(t, g, "f", "the canceled miss to leave", func(s *shard) bool {
		return len(s.parked) == 0 && s.ctl.inFlight == 1 && s.stats.Canceled == 1
	})
	close(gate)
	if ra := <-a; ra.err != nil || ra.status != http.StatusOK {
		t.Fatalf("hold request: %+v", ra)
	}
	waitShard(t, g, "f", "the instance to return", func(s *shard) bool { return len(s.idle) == 1 })
	checkQuiescent(t, g, "f")
	if c := g.obs.Load().parkCanceled.Value(); c != 1 {
		t.Fatalf("park canceled = %g, want 1", c)
	}
	if st := g.Stats(); st.Requests != 2 || st.Requests != st.Reused+st.ColdStarts || st.Parked != 0 {
		t.Fatalf("stats = %+v, want the canceled park uncounted", st)
	}
}

// A hand-off that races the parked request's cancel re-pools the
// instance: it ends up in exactly one place, never dropped and never
// both handed and pooled.
func TestParkHandoffRacingCancel(t *testing.T) {
	g := NewGateway(true)
	fn := gatedFn("f", 0, nil)
	if err := g.Register(fn); err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	s := g.shard("f")
	inst, _, err := g.startInstance(fn)
	if err != nil {
		t.Fatal(err)
	}
	// park puts inst in service for a holder and queues a parked miss
	// behind it, as acquire would.
	park := func() chan *instance {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.idle = nil
		s.ctl.inFlight = 2
		s.handOutLocked(inst)
		ch := make(chan *instance, 1)
		s.parked = append(s.parked, ch)
		return ch
	}
	// settle checks where inst ended up and returns it to the pool.
	settle := func(t *testing.T, got *instance, outcome string) {
		t.Helper()
		if got != nil {
			if outcome != parkHanded || got != inst {
				t.Fatalf("got instance with outcome %q", outcome)
			}
			g.release(s, got)
		} else if outcome != parkCanceled {
			t.Fatalf("outcome %q without an instance", outcome)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if len(s.idle) != 1 || s.idle[0] != inst || s.serving != 0 || s.ctl.inFlight != 0 || len(s.parked) != 0 {
			t.Fatalf("after %s: idle %d, serving %d, inFlight %d, parked %d",
				outcome, len(s.idle), s.serving, s.ctl.inFlight, len(s.parked))
		}
	}

	// Hand-off and cancel both land before the parked request wakes:
	// either select branch must re-pool.
	for i := 0; i < 50; i++ {
		ch := park()
		ctx, cancel := context.WithCancel(context.Background())
		g.release(s, inst)
		cancel()
		got, outcome, err := g.awaitHandoff(ctx, s, ch, time.Hour)
		if got != nil || outcome != parkCanceled || err != context.Canceled {
			t.Fatalf("round %d: got %v, outcome %q, err %v; want a canceled park", i, got, outcome, err)
		}
		settle(t, got, outcome)
	}
	// Fully concurrent: any interleaving may win.
	for i := 0; i < 200; i++ {
		ch := park()
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); g.release(s, inst) }()
		go func() { defer wg.Done(); cancel() }()
		got, outcome, _ := g.awaitHandoff(ctx, s, ch, time.Hour)
		wg.Wait()
		settle(t, got, outcome)
	}
}

// Stop wakes parked requests with a 503 instead of leaving them to
// their wait, and the gateway leaves no goroutine behind.
func TestStopWakesParkedRequests(t *testing.T) {
	before := runtime.NumGoroutine()
	gate := make(chan struct{})
	g := NewGateway(true)
	g.Instrument(obs.New())
	if err := g.Register(gatedFn("f", 0, gate)); err != nil {
		t.Fatal(err)
	}
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	post(t, base+"/function/f", "warm-up")
	if err := g.Register(gatedFn("f", 30*time.Second, gate)); err != nil {
		t.Fatal(err)
	}
	setService(g, "f", 10*time.Second)

	a := holdInstance(t, g, base)
	b := postAsync(context.Background(), base+"/function/f", "parked")
	waitShard(t, g, "f", "the miss to park", func(s *shard) bool { return len(s.parked) == 1 })
	stopped := make(chan struct{})
	go func() { g.Stop(); close(stopped) }()
	rb := <-b
	if rb.err != nil || rb.status != http.StatusServiceUnavailable || rb.rejected != "stopped" {
		t.Fatalf("parked request at Stop: %+v, want 503 stopped", rb)
	}
	if rb.took > 5*time.Second {
		t.Fatalf("Stop took %v to wake the parked request", rb.took)
	}
	close(gate)
	<-a
	<-stopped
	if c := g.obs.Load().parkCanceled.Value(); c != 1 {
		t.Fatalf("park canceled = %g, want 1", c)
	}

	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	deadline := time.Now().Add(5 * time.Second)
	const slack = 4
	for runtime.NumGoroutine() > before+slack {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("Stop with a parked request leaked goroutines: %d alive, baseline %d:\n%s",
				runtime.NumGoroutine(), before, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Churn: concurrent clients over two functions whose service time
// undercuts app init, so misses park, time out or are canceled by
// short deadlines, while the controller prewarms and retires under a
// warm cap. The accounting identities hold throughout and every
// instance is accounted for at the end.
func TestParkChurnAccounting(t *testing.T) {
	g := NewGateway(true)
	g.Instrument(obs.New())
	g.EnableControl(ControlConfig{
		Interval: 5 * time.Millisecond, NewPredictor: naiveFactory,
		MaxWarm: 2, JanitorInterval: time.Hour,
	})
	names := []string{"p", "q"}
	for _, name := range names {
		fn := Function{
			Name:      name,
			ColdStart: 100 * time.Millisecond, // app init 15ms
			Handler: func(b []byte) ([]byte, error) {
				time.Sleep(2 * time.Millisecond)
				return b, nil
			},
		}
		if err := g.Register(fn); err != nil {
			t.Fatal(err)
		}
	}
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				hdr := map[string]string{}
				if rng.Intn(6) == 0 {
					hdr[DeadlineHeader] = "3"
				}
				resp, err := postTenant(base, names[rng.Intn(len(names))], "", fmt.Sprint(i), hdr)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	for _, name := range names {
		waitShard(t, g, name, "in-flight work to drain", func(s *shard) bool { return s.ctl.inFlight == 0 })
		checkQuiescent(t, g, name)
		if got := g.WarmInstances(name); got > 2 {
			t.Fatalf("%s: warm %d exceeds cap 2", name, got)
		}
	}
	st := g.Stats()
	ins := g.obs.Load()
	if st.Requests != st.Reused+st.ColdStarts {
		t.Fatalf("Requests %d != Reused %d + ColdStarts %d", st.Requests, st.Reused, st.ColdStarts)
	}
	if float64(st.Parked) != ins.parkHanded.Value() || st.Parked > st.Reused {
		t.Fatalf("Parked %d, hotc_pool_park_total{handed} %g, Reused %d", st.Parked, ins.parkHanded.Value(), st.Reused)
	}
	parks := ins.parkHanded.Value() + ins.parkTimeout.Value() + ins.parkCanceled.Value()
	if parks != float64(ins.parkWait.Count()) {
		t.Fatalf("%g park outcomes but %d wait observations", parks, ins.parkWait.Count())
	}
	t.Logf("stats %+v; parks handed/timeout/canceled %g/%g/%g", st,
		ins.parkHanded.Value(), ins.parkTimeout.Value(), ins.parkCanceled.Value())
}
