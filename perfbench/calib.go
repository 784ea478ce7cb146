package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
)

// Host-speed normalisation. On a shared 2-vCPU host the time a fixed
// piece of work takes drifts by tens of percent over minutes, for two
// reasons: the hypervisor steals ticks from the VM, and neighbours on
// the same physical cores slow every instruction. Each run corrects for
// both with measurements that do not involve the program under test:
//
//   - CPU speed: a fixed calibration loop, the benchmark's own code, is
//     timed in CPU seconds about once a second between rounds, and every
//     time metric is multiplied by calNominalCPU over the median sample
//     of its pass (set-up, or the timed rounds).
//   - Steal: wall-based metrics are also multiplied by 1-s, s being the
//     share of host CPU ticks stolen during the pass's counted rounds
//     (/proc/stat). It counts every stolen tick, where a sample would
//     not.
//
// The loop's own wall time is not used: steal comes in bursts shorter
// than a sample, so one sample's wall time says little about the rounds
// beside it. On a 2-vCPU Xeon host (go1.24.0), over ten paper-cold
// runs, the CPU factor cut the spread of cpu_ms_per_job from 18% to 3%
// of its median, and over ten serve-mix runs with 0.7-11% steal the
// steal factor cut that of jobs_per_s from 11% to 4.5%. The raw,
// unscaled values are printed beside the scaled ones.
//
// The loop runs in a child process so its buffer never counts toward
// the working process's peak RSS.

// calNominalCPU is the loop's CPU seconds on a quiet 2-vCPU Xeon host,
// the reference scaled times refer to.
const calNominalCPU = 0.140

const (
	calWords = 8 << 20 // 32 MB of uint32, well beyond a private cache
	calLoads = 1 << 18 // dependent loads per sample
	calALU   = 1 << 23 // xorshift steps per sample
	calData  = 1 << 20 // bytes each mix goroutine hashes per pass
)

// calibrateLoop is the loop itself and returns its CPU seconds. The
// first part runs on one thread: a sequential fill (memory bandwidth),
// a chain of dependent loads at data-derived addresses (memory latency)
// and a register-only xorshift chain (issue rate). The second runs on
// two goroutines at once, like the workloads' two host workers: small
// allocations, SHA-256 and channel hand-offs between threads.
func calibrateLoop() float64 {
	c0 := selfCPU()
	buf := make([]uint32, calWords)
	x := uint32(2463534242)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		buf[i] = x
	}
	idx := uint32(0)
	for i := 0; i < calLoads; i++ {
		idx = (buf[idx&(calWords-1)] + idx*2654435761) & (calWords - 1)
	}
	for i := 0; i < calALU; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
	}
	buf = nil
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			calMix(x + idx + uint32(g))
		}(g)
	}
	wg.Wait()
	return selfCPU() - c0
}

// calMix is the two-thread part's work for one goroutine. It touches
// no files: the cold workload leaves megabytes of dirty cache pages
// behind, and write-back would stall a file-writing loop right after
// its rounds without slowing the rounds themselves.
func calMix(seed uint32) {
	data := make([]byte, calData)
	for i := range data {
		data[i] = byte(seed) + byte(i*7)
	}
	var keep [][]byte
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 2000; i++ {
			keep = append(keep, make([]byte, 4096))
			if len(keep) > 200 {
				keep = keep[:0]
			}
		}
		for r := 0; r < 4; r++ {
			sum := sha256.Sum256(data)
			data[r] ^= sum[0]
		}
		ch := make(chan int)
		done := make(chan struct{})
		go func() {
			for range ch {
			}
			close(done)
		}()
		for i := 0; i < 3000; i++ {
			ch <- i
		}
		close(ch)
		<-done
	}
}

// runCalibrate is the child side (-calibrate): print the CPU seconds.
func runCalibrate() {
	fmt.Printf("%.9f\n", calibrateLoop())
}

// calibrate times the loop once in a child process.
func (b *bench) calibrate() (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := exec.Command(self, "-calibrate").Output()
	if err != nil {
		return 0, fmt.Errorf("calibration child: %w", err)
	}
	c, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil || c <= 0 {
		return 0, fmt.Errorf("calibration child printed %q", out)
	}
	return c, nil
}

// scale returns the factors for a pass: cpu from the calibration
// samples taken during it, and wall from those and steal, the share of
// host ticks stolen during its counted rounds.
func scale(samples []float64, steal float64) (wall, cpu float64) {
	cpu = calNominalCPU / median(samples)
	return cpu * (1 - steal), cpu
}
