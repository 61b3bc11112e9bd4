package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// host is the fingerprint recorded with every result: a number from a
// shared 2-vCPU guest means little without the CPU count and the share
// of time the hypervisor stole during the run.
type host struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	StealFrac  float64 `json:"steal_frac"` // steal share of all CPU time during the measured phase; -1 if unreadable
}

func hostInfo() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		StealFrac:  -1,
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTimes is the aggregate "cpu" line of /proc/stat: total jiffies and
// the steal column.
type cpuTimes struct {
	total, steal uint64
	ok           bool
}

func readCPUTimes() cpuTimes {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTimes{}
	}
	fields := strings.Fields(sc.Text())
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user, so the total stops at steal.
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		t.total += v
	}
	t.steal, _ = strconv.ParseUint(fields[8], 10, 64)
	t.ok = true
	return t
}

// stealSince returns the steal share of CPU time between two readings,
// or -1 when either is missing.
func stealSince(a, b cpuTimes) float64 {
	if !a.ok || !b.ok || b.total <= a.total {
		return -1
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
