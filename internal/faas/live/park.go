package live

import (
	"context"
	"errors"
	"time"
)

// Parking is the acquisition tier between the warm pool and the
// sharing/prefork/cold ladder. The paper's Algorithm 1 treats a busy
// container (ExistingNotAvailable) as absent, so a warm miss boots a
// duplicate even when its function's only instance frees up in a few
// milliseconds. A miss instead waits for that instance when waiting is
// measurably cheaper than any boot: the shard's measured service time
// must undercut the function's app-init share, the least any non-warm
// tier pays. release hands the finished instance straight to the
// oldest parked request, which then runs as a warm reuse.

// svcEWMAWeight is the weight of the newest hand-out → release sample
// in a shard's service-time estimate.
const svcEWMAWeight = 0.25

// Park outcomes: the hotc_pool_park_total label values and the detail
// of the request's "parked" span event.
const (
	parkHanded   = "handed"
	parkTimeout  = "timeout"
	parkCanceled = "canceled"
)

// errGatewayStopped ends a parked request woken by Stop.
var errGatewayStopped = errors.New("live: gateway stopped")

// handOutLocked marks inst as serving a request from now on: the
// instance counts toward s.serving and its service time runs. Caller
// holds s.mu.
func (s *shard) handOutLocked(inst *instance) {
	s.serving++
	inst.handedAt = time.Now()
}

// noteServiceLocked folds one completed request's hand-out → release
// time into the shard's service-time EWMA. Caller holds s.mu.
func (s *shard) noteServiceLocked(d time.Duration) {
	if d <= 0 {
		d = 1 // a zero estimate means "not measured yet"
	}
	if s.svc == 0 {
		s.svc = d
		return
	}
	s.svc += time.Duration(svcEWMAWeight * float64(d-s.svc))
}

// parkWaitLocked decides whether a warm miss parks, and for how long.
// It parks only with reuse on, behind at least one serving instance
// (booting ones do not count), once the shard has a measured service
// time, and only when that time is below the function's app-init
// share. The wait is twice the service time; 0 means do not park.
// Caller holds s.mu.
func (g *Gateway) parkWaitLocked(s *shard, fn Function) time.Duration {
	if !g.reuse || s.serving == 0 || s.svc == 0 || g.stopped.Load() {
		return 0
	}
	if _, _, app := g.splitPhases(fn); s.svc >= app {
		return 0
	}
	return 2 * s.svc
}

// unparkLocked removes a parked request's hand-off channel from the
// park queue, reporting whether it was still there (false: a release
// already handed it an instance). Caller holds s.mu.
func (s *shard) unparkLocked(ch chan *instance) bool {
	for i, q := range s.parked {
		if q == ch {
			copy(s.parked[i:], s.parked[i+1:])
			s.parked[len(s.parked)-1] = nil
			s.parked = s.parked[:len(s.parked)-1]
			return true
		}
	}
	return false
}

// awaitHandoff blocks a parked miss until a release hands it an
// instance on ch, the wait runs out, its context ends or the gateway
// stops. Hand-off dequeues ch and sends on it under the shard lock, and
// ch has one slot, so the send never blocks; the outcome is settled
// under the same lock: a channel no longer queued was handed an
// instance, which is already in it. A handed instance whose request is
// gone is re-pooled, never dropped or used twice.
//
// Returns the instance when handed (counted as a reuse), the context
// or stop error when canceled (demand accounting already closed), and
// neither on timeout: the caller falls through to the boot ladder.
func (g *Gateway) awaitHandoff(ctx context.Context, s *shard, ch chan *instance, wait time.Duration) (*instance, string, error) {
	start := time.Now()
	timer := time.NewTimer(wait)
	var inst *instance
	var err error
	select {
	case inst = <-ch:
	case <-timer.C:
	case <-ctx.Done():
	case <-g.ctlStop:
		err = errGatewayStopped
	}
	timer.Stop()

	s.mu.Lock()
	if inst == nil && !s.unparkLocked(ch) {
		inst = <-ch
	}
	if err == nil {
		err = ctx.Err()
	}
	outcome := parkTimeout
	var doomed *instance
	switch {
	case err != nil:
		outcome = parkCanceled
		if s.ctl.inFlight > 0 {
			s.ctl.inFlight--
		}
		if inst != nil {
			doomed = g.repoolLocked(s, inst)
			inst = nil
		}
	case inst != nil:
		outcome = parkHanded
		s.stats.Requests++
		s.stats.Reused++
		s.stats.Parked++
	}
	if ins := g.obs.Load(); ins != nil {
		ins.parkOutcome(outcome).Inc()
		ins.parkWait.ObserveDuration(time.Since(start))
	}
	s.mu.Unlock()
	if doomed != nil {
		doomed.stop()
	}
	return inst, outcome, err
}
