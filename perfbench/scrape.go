package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"hotc/internal/admission"
	"hotc/internal/faas/live"
	"hotc/internal/obs"
)

// systemStats is the part of GET /system/stats the benchmark reads.
type systemStats struct {
	Stats     live.Stats                 `json:"stats"`
	Admission map[string]admission.Stats `json:"admission"`
	ColdPath  live.ColdPathStats         `json:"coldPath"`
	Sharing   live.SharingStats          `json:"sharing"`
	Trace     live.TraceStats            `json:"trace"`
}

// snapshot is the daemon's accounting at one instant, read from its
// public surfaces: /system/stats and /metrics.
type snapshot struct {
	sys  systemStats
	prom promSamples
}

// scraper reads the daemon's management API over its own connection,
// outside the timed window.
type scraper struct {
	http *http.Client
	base string
}

func (s *scraper) getJSON(path string, v any) error {
	resp, err := s.http.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

func (s *scraper) snapshot() (snapshot, error) {
	var snap snapshot
	if err := s.getJSON("/system/stats", &snap.sys); err != nil {
		return snap, err
	}
	resp, err := s.http.Get(s.base + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	snap.prom, err = parseProm(resp.Body)
	if err != nil {
		return snap, fmt.Errorf("GET /metrics: %w", err)
	}
	return snap, nil
}

func (s *scraper) predictions() (map[string]live.PredictionTrace, error) {
	out := map[string]live.PredictionTrace{}
	return out, s.getJSON("/system/predictions", &out)
}

func (s *scraper) traceSpans() ([]obs.Span, error) {
	var body struct {
		Spans []obs.Span `json:"spans"`
	}
	return body.Spans, s.getJSON("/system/trace", &body)
}

// promSample is one exposition line: a metric name, its labels and
// its value.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

type promSamples []promSample

// parseProm reads a Prometheus text exposition into samples. Comments
// and exemplar suffixes are skipped; the daemon writes no timestamps.
func parseProm(r io.Reader) (promSamples, error) {
	var out promSamples
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed value in %q", line)
		}
		s := promSample{name: line[:sp], value: v, labels: map[string]string{}}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			if err := parseLabels(s.name[i:], s.labels); err != nil {
				return nil, fmt.Errorf("%v in %q", err, line)
			}
			s.name = s.name[:i]
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// parseLabels reads `{k="v",...}` into m, unescaping values.
func parseLabels(s string, m map[string]string) error {
	if !strings.HasSuffix(s, "}") {
		return fmt.Errorf("unterminated labels")
	}
	s = s[1 : len(s)-1]
	for s != "" {
		eq := strings.Index(s, `="`)
		if eq < 0 {
			return fmt.Errorf("malformed label")
		}
		key := s[:eq]
		s = s[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				if s[i] == 'n' {
					val.WriteByte('\n')
					continue
				}
			}
			val.WriteByte(s[i])
		}
		if i == len(s) {
			return fmt.Errorf("unterminated label value")
		}
		m[key] = val.String()
		s = strings.TrimPrefix(s[i+1:], ",")
	}
	return nil
}

// sum adds every sample of name whose labels include all of match
// (given as key, value pairs).
func (ps promSamples) sum(name string, match ...string) float64 {
	total := 0.0
outer:
	for _, s := range ps {
		if s.name != name {
			continue
		}
		for i := 0; i+1 < len(match); i += 2 {
			if s.labels[match[i]] != match[i+1] {
				continue outer
			}
		}
		total += s.value
	}
	return total
}
