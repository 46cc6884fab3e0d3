package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Host and process readings from /proc and getrusage. Linux only.

// clockTick is the unit of the utime/stime fields of /proc/<pid>/stat
// (USER_HZ, 100 on every Linux configuration Go supports).
const clockTick = 10 * time.Millisecond

// selfCPU is the benchmark process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is another process's user+system CPU time so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// procPath names a /proc entry of pid, or of this process for pid 0.
func procPath(pid int, name string) string {
	if pid == 0 {
		return "/proc/self/" + name
	}
	return fmt.Sprintf("/proc/%d/%s", pid, name)
}

// resetPeakRSS restarts the process's VmHWM accounting from its current
// resident set (writing 5 to clear_refs).
func resetPeakRSS(pid int) error {
	return os.WriteFile(procPath(pid, "clear_refs"), []byte("5"), 0)
}

// peakRSSMB is the process's VmHWM in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(procPath(pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", procPath(pid, "status"))
}

// cpuTicks is the aggregate line of /proc/stat: total and steal ticks.
type cpuTicks struct{ total, steal uint64 }

func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	var t cpuTicks
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user, so sum the first eight.
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// stealPct is the share of CPU time the hypervisor took between two
// readings, in percent.
func stealPct(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostLine records what a noisy run needs to be recognized.
func hostLine(extra string) string {
	s := fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	if extra != "" {
		s += " " + extra
	}
	return s
}
