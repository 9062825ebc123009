package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"hotc/internal/faas/live"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Fatal("p99 of 100 samples has 1 beyond it and must be refused")
	}
	if _, err := percentile(xs, 0.95); err == nil {
		t.Fatal("p95 of 100 samples has 5 beyond it and must be refused")
	}
	v, err := percentile(xs, 0.90)
	if err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 with exactly 10 beyond", v, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("a percentile of no samples must be refused")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{1, 2, 3}, 2}, {[]float64{1, 2, 3, 10}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestScheduleReproducibleFromSeed(t *testing.T) {
	for _, name := range []string{"cold-skew", "periodic-burst"} {
		w := workloads[name]
		a := w.schedule(7, 30*time.Second)
		b := w.schedule(7, 30*time.Second)
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: seed 7 drew two different schedules (%d vs %d arrivals)", name, len(a), len(b))
		}
		if c := w.schedule(8, 30*time.Second); reflect.DeepEqual(a, c) {
			t.Fatalf("%s: seeds 7 and 8 drew the same schedule", name)
		}
		// Exactly rate*window arrivals, every one inside the window.
		if n := len(a); n != int(w.rate*30) {
			t.Errorf("%s: %d arrivals in 30s at %v rps", name, n, w.rate)
		}
		for _, x := range a {
			if x.At < 0 || x.At >= 30*time.Second || !w.activeAt(x.Fn, x.At) {
				t.Fatalf("%s: arrival %+v outside the window or its function's active phase", name, x)
			}
		}
	}
}

func TestScheduleFollowsWeights(t *testing.T) {
	w := workloads["cold-skew"]
	counts := make([]int, len(w.fns))
	for _, a := range w.schedule(1, 600*time.Second) {
		counts[a.Fn]++
	}
	// 12000 arrivals deal 352 full 34-card decks of 16:8:4:2:1:1:1:1
	// and 32 cards of the next.
	for i, wt := range w.weights {
		if lo, hi := 352*wt, 353*wt; counts[i] < lo || counts[i] > hi {
			t.Errorf("function %d (weight %d) drew %d arrivals, want %d..%d", i, wt, counts[i], lo, hi)
		}
	}
}

func TestSleepInputs(t *testing.T) {
	in := workloads["cold-skew"].makeInputs()
	if body, want := string(in.body[0]), string(in.want[0]); body != "5" || want != "slept 5ms" {
		t.Fatalf("sleep request %q, reply %q; want 5 and slept 5ms", body, want)
	}
}

// consistent is an accounting where every identity holds: 10 served,
// 6 of them warm, one full cold boot, two generic handoffs and one
// rented boot.
func consistent() accounting {
	return accounting{
		ClientOK: 10,
		Reused:   6,
		Modes:    map[string]int{"cold": 1, "generic": 2, "rented": 1},
		Totals:   live.Stats{Requests: 30, Reused: 20, ColdStarts: 10},
		Delta:    live.Stats{Requests: 10, Reused: 6, ColdStarts: 4, GenericHandoffs: 2, RentedBoots: 1},
		OKDelta:  10,
		BootDelta: map[string]float64{
			"cold": 1, "generic": 2, "rented": 1,
		},
	}
}

func TestAccountingAcceptsConsistentCounts(t *testing.T) {
	if bad := consistent().check(); len(bad) != 0 {
		t.Fatalf("consistent accounting rejected: %v", bad)
	}
}

func TestAccountingRejectsMismatch(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(*accounting)
		want   string
	}{
		{"stats identity", func(a *accounting) { a.Totals.Requests++ }, "Requests"},
		{"ok counter", func(a *accounting) { a.OKDelta = 9 }, "outcome=ok"},
		{"reused", func(a *accounting) { a.Delta.Reused = 5 }, "Stats.Reused"},
		{"generic header vs handoffs", func(a *accounting) { a.Delta.GenericHandoffs = 3 }, "GenericHandoffs"},
		{"rented header vs boots", func(a *accounting) { a.Delta.RentedBoots = 0 }, "RentedBoots"},
		{"boots_total by mode", func(a *accounting) { a.BootDelta["generic"] = 3 }, `mode="generic"`},
		{"missing boot header", func(a *accounting) { a.Modes["cold"] = 0 }, "X-Hotc-Boot"},
	} {
		a := consistent()
		c.mutate(&a)
		bad := a.check()
		if len(bad) == 0 || !strings.Contains(strings.Join(bad, "\n"), c.want) {
			t.Errorf("%s: mismatch not reported (got %v)", c.name, bad)
		}
	}
}

func TestAccountingPrewarmSlack(t *testing.T) {
	a := consistent()
	a.BootDelta["cold"] = 3 // two controller prewarms booted cold
	if bad := a.check(); len(bad) == 0 {
		t.Fatal("extra full boots accepted with the controller off")
	}
	a.PrewarmSlack = 2
	if bad := a.check(); len(bad) != 0 {
		t.Fatalf("prewarm boots within the slack rejected: %v", bad)
	}
	a.BootDelta["rented"] = 2
	if bad := a.check(); len(bad) == 0 {
		t.Fatal("a rented boot without a rented reply accepted: prewarms never lease")
	}
	a.BootDelta["rented"] = 1
	a.BootDelta["cold"] = 0
	if bad := a.check(); len(bad) == 0 {
		t.Fatal("fewer full boots than cold replies accepted")
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP hotc_requests_total Requests.
# TYPE hotc_requests_total counter
hotc_requests_total{function="a",outcome="ok"} 3
hotc_requests_total{function="b",outcome="ok"} 4
hotc_requests_total{function="b",outcome="error"} 1
hotc_adm_queue_wait_ms_bucket{function="a\"x",le="1"} 2 # {trace_id="abc"} 0.5 1700000000
hotc_ctl_ticks_total 9
`
	ps, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := ps.sum("hotc_requests_total", "outcome", "ok"); got != 7 {
		t.Errorf("ok requests = %v, want 7", got)
	}
	if got := ps.sum("hotc_requests_total"); got != 8 {
		t.Errorf("all requests = %v, want 8", got)
	}
	if got := ps.sum("hotc_adm_queue_wait_ms_bucket", "function", `a"x`, "le", "1"); got != 2 {
		t.Errorf("escaped label bucket = %v, want 2", got)
	}
	if got := ps.sum("hotc_ctl_ticks_total"); got != 9 {
		t.Errorf("unlabelled counter = %v, want 9", got)
	}
	if _, err := parseProm(strings.NewReader("hotc_x{a=\"1\" 2\n")); err == nil {
		t.Error("unterminated labels accepted")
	}
}

// TestNamesMatchBenchmarkJSON keeps the result lines and the
// repository's BENCHMARK.json naming the same metrics with the same
// units.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var declared struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &declared); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range declared.Workloads {
		wls = append(wls, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if len(wls) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark has %d", wls, len(workloads))
	}
	for _, c := range []struct {
		reported []spec
		file     []struct{ Name, Unit string }
	}{{endToEnd, declared.EndToEnd}, {perLayer, declared.PerLayer}} {
		var got []spec
		for _, m := range c.file {
			got = append(got, spec{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, c.reported) {
			t.Errorf("BENCHMARK.json metrics %v, the benchmark reports %v", got, c.reported)
		}
	}
}
