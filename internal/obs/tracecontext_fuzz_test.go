package obs

import (
	"fmt"
	"testing"
)

// FuzzParseTraceparent fuzzes the traceparent header, an untrusted
// boundary. It never panics; every accepted value carries valid IDs; an
// accepted version-00 value is exactly the four fields and renders back
// to itself; and an accepted value stays accepted under any higher
// (non-reserved) version.
func FuzzParseTraceparent(f *testing.F) {
	const valid = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	for _, seed := range []string{
		valid,
		valid + "-extrafield",
		"cc" + valid[2:] + "-extrafield",
		"fe" + valid[2:] + "-",
		"ff" + valid[2:],
		valid + "x",
		valid[:54],
		"00-" + fmt.Sprintf("%032d", 0) + "-00f067aa0ba902b7-01",
		"00-01A00000000000000000000000000000-0000000000000000-00",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tc, ok := ParseTraceparent(s)
		if !ok {
			if tc != (TraceContext{}) {
				t.Fatalf("%q rejected with non-zero context %+v", s, tc)
			}
			return
		}
		if !tc.Valid() {
			t.Fatalf("%q accepted with invalid IDs %+v", s, tc)
		}
		ver, _ := hexByte(s[0], s[1])
		if ver == 0 {
			if len(s) != traceparentLen {
				t.Fatalf("version-00 %q accepted at %d bytes, want %d", s, len(s), traceparentLen)
			}
			if got := tc.Traceparent(); got != s {
				t.Fatalf("%q renders back as %q", s, got)
			}
		}
		for v := int(ver) + 1; v < 0xff; v++ {
			higher := fmt.Sprintf("%02x", v) + s[2:]
			if got, ok := ParseTraceparent(higher); !ok || got != tc {
				t.Fatalf("%q accepted as %+v, but version %02x gives %+v, %v", s, tc, v, got, ok)
			}
		}
	})
}
