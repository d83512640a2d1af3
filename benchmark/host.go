package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// host records where and how a result file was measured.  Two result
// files are comparable only when their host blocks are equal.
type host struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"` // `git rev-parse HEAD`, "unknown" outside a git checkout
	Kernel     string  `json:"kernel"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"window_seconds"`
	Scale      float64 `json:"scale"`
}

func hostBlock(cfg config) host {
	h := host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", Kernel: "unknown",
		Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale,
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = cfg.root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if buf, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(buf))
	}
	return h
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), 0
// where /proc does not provide it.
func peakRSSMB() float64 { return procStatusMB("/proc/self/status", "VmHWM:") }

func procStatusMB(path, key string) float64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			fields := strings.Fields(rest) // "123456 kB"
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
