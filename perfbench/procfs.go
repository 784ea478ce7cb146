package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// clockTicks is USER_HZ, the unit of /proc CPU counters. It is 100 on
// every Linux architecture Go supports; reading it needs sysconf, which
// needs cgo.
const clockTicks = 100

// rusageThread is RUSAGE_THREAD, which the syscall package does not
// name: CPU of the calling OS thread only.
const rusageThread = 1

// selfCPU returns the user plus system CPU seconds of this process.
// Unlike wall time, it does not grow when the hypervisor steals the
// host's CPUs.
func selfCPU() float64 { return rusageCPU(syscall.RUSAGE_SELF) }

// threadCPU returns the CPU seconds of the calling OS thread; pin the
// goroutine with runtime.LockOSThread around the measured call.
func threadCPU() float64 { return rusageCPU(rusageThread) }

func rusageCPU(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// parsePidStatCPU returns utime+stime in seconds from the contents of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and
// may itself hold spaces and parentheses, so fields are counted from
// the last ')'.
func parsePidStatCPU(data []byte) (float64, error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command name")
	}
	f := strings.Fields(string(data[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command name", len(f))
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("stat: bad utime/stime %q %q", f[11], f[12])
	}
	return float64(ut+st) / clockTicks, nil
}

// pidCPU returns the CPU seconds a running process has used.
func pidCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parsePidStatCPU(data)
}

// hostTicks is the aggregate "cpu" line of /proc/stat.
type hostTicks struct {
	total, steal uint64
}

// parseHostTicks reads the aggregate "cpu" line of /proc/stat. The
// total is user+nice+system+idle+iowait+irq+softirq+steal; guest time
// is already inside user and nice.
func parseHostTicks(data []byte) (hostTicks, error) {
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return hostTicks{}, fmt.Errorf("/proc/stat: short cpu line %q", line)
		}
		var t hostTicks
		for k := 1; k <= 8; k++ {
			v, err := strconv.ParseUint(f[k], 10, 64)
			if err != nil {
				return hostTicks{}, fmt.Errorf("/proc/stat: %w", err)
			}
			t.total += v
		}
		t.steal, _ = strconv.ParseUint(f[8], 10, 64)
		return t, nil
	}
	return hostTicks{}, fmt.Errorf("/proc/stat: no cpu line")
}

func readHostTicks() hostTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	t, _ := parseHostTicks(data)
	return t
}

// stealShare is the share of host CPU ticks stolen between a and b.
func stealShare(a, b hostTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// parseStatusKB returns a "Key:   N kB" field of /proc/<pid>/status.
func parseStatusKB(data []byte, key string) (int64, error) {
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed %s line %q", key, line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("status: no %s line", key)
}

// peakRSSMB returns VmHWM, the resident-set high-water mark, in MB.
// pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(procPath(pid, "status"))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(data, "VmHWM")
	return float64(kb) / 1024, err
}

// resetPeakRSS sets VmHWM back to the current RSS, so the next reading
// covers only what runs after this call.
func resetPeakRSS(pid int) error {
	return os.WriteFile(procPath(pid, "clear_refs"), []byte("5"), 0)
}

func procPath(pid int, name string) string {
	if pid == 0 {
		return "/proc/self/" + name
	}
	return fmt.Sprintf("/proc/%d/%s", pid, name)
}
