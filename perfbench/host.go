package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// host fingerprints the machine a result was measured on, so numbers
// from different hosts are never compared.
type host struct {
	NumCPU, GOMAXPROCS  int
	GoVersion, CPUModel string
}

func fingerprint() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// where there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTime is the user plus system CPU the whole process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
