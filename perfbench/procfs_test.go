package main

import (
	"os"
	"testing"
)

func TestParsePidStatCPU(t *testing.T) {
	// The command name holds spaces and a ')' of its own.
	stat := "4242 (serve (x) y) S 1 4242 4242 0 -1 4194304 430 895 0 0 1234 566 7 8 20 0 3 0 2042716 4173824 724\n"
	got, err := parsePidStatCPU([]byte(stat))
	if err != nil || !near(got, 18.00) {
		t.Fatalf("cpu = %v, %v; want 18 s (1800 ticks)", got, err)
	}
	if _, err := parsePidStatCPU([]byte("4242 (serve) S 1 2")); err == nil {
		t.Fatal("short stat line accepted")
	}
	if _, err := parsePidStatCPU([]byte("no parens")); err == nil {
		t.Fatal("stat line without a command name accepted")
	}
}

func TestParseHostTicksAndSteal(t *testing.T) {
	a, err := parseHostTicks([]byte("cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 50 0 25 400 5 0 2 17 0 0\n"))
	if err != nil || a.total != 1000 || a.steal != 35 {
		t.Fatalf("ticks %+v, %v; want total 1000 steal 35", a, err)
	}
	b, _ := parseHostTicks([]byte("cpu  200 0 100 1500 10 0 5 185 0 0\n"))
	// 150 of the 1000 ticks between a and b were stolen.
	if got := stealShare(a, b); !near(got, 0.15) {
		t.Fatalf("steal share %v, want 0.15", got)
	}
	if got := stealShare(b, a); got != 0 {
		t.Fatalf("steal share of a backwards interval %v, want 0", got)
	}
	if _, err := parseHostTicks([]byte("intr 1 2 3\n")); err == nil {
		t.Fatal("/proc/stat without a cpu line accepted")
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\tserve\nVmPeak:\t  900000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n"
	got, err := parseStatusKB([]byte(status), "VmHWM")
	if err != nil || got != 51200 {
		t.Fatalf("VmHWM = %d, %v; want 51200", got, err)
	}
	if _, err := parseStatusKB([]byte("Name:\tx\n"), "VmHWM"); err == nil {
		t.Fatal("missing VmHWM accepted")
	}
}

func TestReadersOnThisProcess(t *testing.T) {
	if _, err := os.Stat("/proc/self/status"); err != nil {
		t.Skip("no /proc")
	}
	buf := make([]byte, 64<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	peak, err := peakRSSMB(0)
	if err != nil || peak < 64 {
		t.Fatalf("VmHWM %v MB, %v; want at least the 64 MB just touched", peak, err)
	}
	buf = nil
	c0 := selfCPU()
	x := 0
	for i := 0; i < 50_000_000; i++ {
		x += i
	}
	if selfCPU() <= c0 || x == 0 {
		t.Fatal("process CPU did not advance over a busy loop")
	}
	self, err := pidCPU(os.Getpid())
	if err != nil || self <= 0 {
		t.Fatalf("/proc/<pid>/stat CPU %v, %v", self, err)
	}
}
