package main

import (
	"crypto/sha256"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// machine is the record of the box a run measured on. It is printed beside
// the metrics so a reader can tell a slower box from a slower program; no
// metric is ever adjusted by it.
type machine struct {
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	LoadStart  string  `json:"loadavg_start"`
	LoadEnd    string  `json:"loadavg_end"`
	StealS     float64 `json:"steal_s"`
	// The speed probes: a fixed ALU-bound job and a fixed cache-missing
	// one, each timed before and after the workload. Neighbours on a
	// shared host can slow cache-missing code without any steal time.
	ProbeS       float64 `json:"probe_before_s"`
	ProbeEndS    float64 `json:"probe_after_s"`
	MemProbeS    float64 `json:"mem_probe_before_s"`
	MemProbeEndS float64 `json:"mem_probe_after_s"`

	stealStart float64
}

// startMachine records the box before the workload runs.
func startMachine() *machine {
	return &machine{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		LoadStart:  loadavg(),
		stealStart: stealSeconds(),
		ProbeS:     speedProbe(),
		MemProbeS:  memProbe(),
	}
}

// finish records the box after the workload ran.
func (m *machine) finish() {
	m.ProbeEndS = speedProbe()
	m.MemProbeEndS = memProbe()
	m.StealS = stealSeconds() - m.stealStart
	m.LoadEnd = loadavg()
}

// loadavg returns the three load averages of /proc/loadavg ("" where the
// file is unreadable).
func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return ""
	}
	return strings.Join(f[:3], " ")
}

// stealSeconds returns the host's cumulative steal time over all CPUs, from
// the aggregate cpu line of /proc/stat (0 where unavailable).
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// speedProbe times a fixed amount of CPU work: hashing 64 MiB in 1 MiB
// chunks.
func speedProbe() float64 {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	t0 := time.Now()
	for i := 0; i < 64; i++ {
		sum := sha256.Sum256(buf)
		buf[i] = sum[0]
	}
	return time.Since(t0).Seconds()
}

// cpuSeconds returns the user plus system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// memProbe times a fixed chain of dependent loads through a random cycle
// over 8 MiB, which misses the private caches on every step.
func memProbe() float64 {
	const n = 1 << 21
	next := make([]uint32, n)
	for i := range next {
		next[i] = uint32(i)
	}
	// Sattolo's shuffle makes one cycle through every slot.
	rng := rand.New(rand.NewSource(1))
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	t0 := time.Now()
	p := uint32(0)
	for i := 0; i < n; i++ {
		p = next[p]
	}
	d := time.Since(t0).Seconds()
	probeSink = p
	return d
}

// probeSink keeps the pointer chase from being optimized away.
var probeSink uint32

// peakRSSMB returns the peak resident set of this process in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
