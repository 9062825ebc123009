package main

import (
	"fmt"

	"hotc/internal/faas/live"
)

// bootModes are the X-Hotc-Boot values of a non-reused response.
var bootModes = []string{"cold", "generic", "rented"}

// accounting is what the client saw over the timed window next to
// what the gateway counted over the same window.
type accounting struct {
	// ClientOK counts 2xx responses; Reused and Modes classify them by
	// X-Hotc-Reused and, when not reused, X-Hotc-Boot.
	ClientOK int
	Reused   int
	Modes    map[string]int
	// Totals are the gateway's counters at the end of the window;
	// Delta is their change over it.
	Totals, Delta live.Stats
	// OKDelta is the change of hotc_requests_total{outcome="ok"} and
	// BootDelta of hotc_coldpath_boots_total{mode}.
	OKDelta   float64
	BootDelta map[string]float64
	// PrewarmSlack is how many boots the adaptive controller may have
	// added to hotc_coldpath_boots_total beside the requests' own (0
	// with the controller off, which makes every identity exact).
	PrewarmSlack int
}

// check returns one message per violated identity.
func (a accounting) check() []string {
	var bad []string
	expect := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	t := a.Totals
	expect(t.Requests == t.Reused+t.ColdStarts,
		"Stats: Requests %d != Reused %d + ColdStarts %d", t.Requests, t.Reused, t.ColdStarts)
	expect(float64(a.ClientOK) == a.OKDelta,
		"client saw %d 2xx responses, hotc_requests_total{outcome=ok} grew by %g", a.ClientOK, a.OKDelta)
	expect(a.Delta.Reused == a.Reused,
		"client saw %d X-Hotc-Reused: true, Stats.Reused grew by %d", a.Reused, a.Delta.Reused)
	notReused := a.ClientOK - a.Reused
	expect(a.Delta.ColdStarts == notReused,
		"client saw %d X-Hotc-Reused: false, Stats.ColdStarts grew by %d", notReused, a.Delta.ColdStarts)
	sum := 0
	for _, m := range bootModes {
		sum += a.Modes[m]
	}
	expect(sum == notReused, "%d non-reused responses but %d carry a known X-Hotc-Boot", notReused, sum)
	expect(a.Delta.GenericHandoffs == a.Modes["generic"],
		"client saw %d X-Hotc-Boot: generic, Stats.GenericHandoffs grew by %d", a.Modes["generic"], a.Delta.GenericHandoffs)
	expect(a.Delta.RentedBoots == a.Modes["rented"],
		"client saw %d X-Hotc-Boot: rented, Stats.RentedBoots grew by %d", a.Modes["rented"], a.Delta.RentedBoots)
	for _, m := range bootModes {
		got, want := a.BootDelta[m], float64(a.Modes[m])
		slack := float64(a.PrewarmSlack)
		if m == "rented" {
			slack = 0 // controller prewarms never lease
		}
		expect(got >= want && got <= want+slack,
			"client saw %g X-Hotc-Boot: %s, hotc_coldpath_boots_total{mode=%q} grew by %g (allowed prewarm boots: %g)",
			want, m, m, got, slack)
	}
	return bad
}
