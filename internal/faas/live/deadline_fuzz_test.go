package live

import (
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// FuzzRequestDeadline fuzzes the X-Hotc-Deadline-Ms header, an
// untrusted boundary. An accepted value never yields a deadline before
// the request's arrival, and of two accepted positive values the
// larger never yields the earlier deadline. (0 means "no deadline".)
// Values too large for a time.Duration are refused, not wrapped.
func FuzzRequestDeadline(f *testing.F) {
	for _, seed := range [][2]string{
		{"0", "1"}, {"1", "1000"}, {"+5", "05"},
		{"9223372036854", "9223372036855"},
		{"18446744073710", "5"}, {"-1", "soon"}, {"", "0"},
	} {
		f.Add(seed[0], seed[1])
	}
	g := NewGateway(true)
	start := time.Unix(1_700_000_000, 0)
	deadline := func(t *testing.T, h string) (time.Time, int64, bool) {
		r := httptest.NewRequest("POST", "/function/f", nil)
		if h != "" {
			r.Header.Set(DeadlineHeader, h)
		}
		d, err := g.requestDeadline(r, start)
		if err != nil {
			return time.Time{}, 0, false
		}
		ms, perr := strconv.ParseInt(h, 10, 64)
		if h != "" && (perr != nil || ms < 0) {
			t.Fatalf("header %q accepted, but it is no non-negative integer", h)
		}
		if !d.IsZero() && d.Before(start) {
			t.Fatalf("header %q: deadline %v is before arrival %v", h, d, start)
		}
		if ms > 0 && d.Sub(start).Milliseconds() != ms {
			t.Fatalf("header %q: deadline %v after arrival, want %dms", h, d.Sub(start), ms)
		}
		return d, ms, true
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		da, ma, okA := deadline(t, a)
		db, mb, okB := deadline(t, b)
		if !okA || !okB || ma <= 0 || mb <= 0 {
			return
		}
		if ma > mb {
			da, db = db, da
			ma, mb = mb, ma
		}
		if db.Before(da) {
			t.Fatalf("%dms gives deadline %v, earlier than %dms's %v", mb, db, ma, da)
		}
	})
}
