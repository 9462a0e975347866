package main

import (
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"github.com/rootevent/anycastddos/internal/udpbatch"
)

// setupReps is how many times, at least, a workload's set-up is repeated;
// setup_s is the fastest.
const setupReps = 3

// cpuTimes returns the user and system CPU seconds consumed so far by this
// process (all threads) or by its waited-for children.
func cpuTimes(who int) (user, sys float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime), tv(ru.Stime)
}

// cpuSeconds is user+system CPU of this process, plus its reaped children
// when asked.
func cpuSeconds(withChildren bool) float64 {
	u, s := cpuTimes(syscall.RUSAGE_SELF)
	if withChildren {
		cu, cs := cpuTimes(syscall.RUSAGE_CHILDREN)
		u, s = u+cu, s+cs
	}
	return u + s
}

// peakRSSMiB is the high-water resident set of this process (VmHWM), or —
// for a workload whose work happens in child processes — the larger of
// that and the largest reaped child's.
func peakRSSMiB(withChildren bool) float64 {
	kb := 0.0
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					kb, _ = strconv.ParseFloat(f[0], 64)
				}
			}
		}
	}
	maxrss := func(who int) float64 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err != nil {
			return 0
		}
		return float64(ru.Maxrss) // KiB on Linux
	}
	if kb == 0 {
		kb = maxrss(syscall.RUSAGE_SELF)
	}
	if withChildren {
		kb = max(kb, maxrss(syscall.RUSAGE_CHILDREN))
	}
	return kb / 1024
}

// memDelta is what the Go runtime allocated and collected between two
// readings.
type memDelta struct {
	Mallocs, Bytes uint64
	GCs            uint32
	PauseMs        float64
}

func (d *memDelta) add(o memDelta) {
	d.Mallocs += o.Mallocs
	d.Bytes += o.Bytes
	d.GCs += o.GCs
	d.PauseMs += o.PauseMs
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		Mallocs: after.Mallocs - before.Mallocs,
		Bytes:   after.TotalAlloc - before.TotalAlloc,
		GCs:     after.NumGC - before.NumGC,
		PauseMs: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
}

func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return runtime.GOOS
	}
	return strings.TrimSpace(string(data))
}

// udpBatched reports whether udpbatch moves whole batches per syscall on
// this platform (false: the one-datagram fallback is what was measured).
func udpBatched() bool {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return false
	}
	defer conn.Close()
	bc, err := udpbatch.New(conn, 1)
	return err == nil && bc.Batched()
}
