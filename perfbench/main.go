// Command perfbench is the repository's end-to-end benchmark. It builds
// nothing itself: run.sh compiles it and cmd/serve from the tree under
// test, then runs
//
//	perfbench -workload NAME -seed N -seconds S -trace 0|1
//
// Workloads (see BENCHMARK.json for why each exists):
//
//   - paper-cold: one closed-loop client runs the paper round through
//     runner.RunContext, each round in a fresh empty cache directory.
//   - paper-warm: the same round replayed from a cache filled in set-up.
//   - serve-mix: two closed-loop HTTP clients against a cmd/serve
//     process at its default -concurrency 1; four in five jobs are warm
//     repeats of the paper round, the rest cold kernels on fresh seeds.
//
// Measurement rules, each chosen because the 2-vCPU host it was built on
// loses 1-32% of its CPU ticks to hypervisor steal:
//
//   - A run is a fixed number of complete rounds (a round is a fixed job
//     sequence), derived from -seconds and the workload's round rate, so
//     every job kind has equal weight in every run and the pooled tail
//     percentile always falls within the same kind. A pass of 30 or
//     more short rounds drops up to a third, those with the highest
//     share of stolen host ticks (never a round with none).
//   - job_p50_s is the geometric mean over job kinds of each kind's
//     median latency; a pooled median would jump between kinds.
//   - cpu_ms_per_job reads process CPU (getrusage in-process,
//     /proc/<pid>/stat for the server), which steal does not inflate.
//   - Every time is normalised to the reference host's speed with a
//     calibration loop and the measured steal share (see calib.go); the
//     unscaled values are printed too.
//   - A forced GC runs before every in-process job, outside its timed
//     window, and the RSS high-water mark is reset before the timed
//     rounds.
//
// Correctness: every non-manifest artifact is checked against the
// SHA-256 pins in pins.json (figure artifacts for any seed, seeded
// kernels for the default seed 1 and the held-out seed 977). A pinned
// artifact that is missing, or an artifact with no pin, fails the job.
// On other seeds the seeded kernels are checked by their own
// verification line and by byte identity with their first run in the
// process, which also holds cold, warm and served bytes of one spec
// equal. Cold serve-mix jobs run on seeds used nowhere else, so only
// their verification line and artifact set are checked.
//
// Exact counts: cache hits, misses and puts, rejects, and computed and
// cached cells must repeat exactly between the rounds of a run (a round
// that differs fails its jobs), and engine cycles, refs, regions and
// phases between two runs of a kernel in the traced probes. Cache byte
// counters are reported but exempt: result payloads of sweep cells
// gob-encode some values, and gob's type ids depend on what the process
// encoded before, so equal results can differ in byte count.
//
// The last line of standard output is the JSON result; the lines
// before it print every metric with its unit and the host stamp.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median, so neither the first set-up in a fresh process nor one
// hit by a steal burst sets it alone.
const setupReps = 3

// calBlock is the seconds of -seconds between two calibration samples
// (at least one round).
const calBlock = 1.0

// roundRate is how many rounds a run makes per second of -seconds. On
// the 2-vCPU reference host a paper-warm round takes about 0.08 s and a
// serve-mix round about 1.8 s, so those runs last about -seconds. A
// paper-cold round takes about 4.5 s, but a run makes one per 2.5 s:
// with eight job kinds the pooled tail percentile is an order statistic
// of a single kind, and at seven rounds (-seconds 18) it is the median
// of fig2's seven, where at four or six it was a noisier extreme.
var roundRate = map[string]float64{
	"paper-cold": 1.0 / 2.5,
	"paper-warm": 10,
	"serve-mix":  1.0 / 1.8,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type bench struct {
	root, work, serveBin string
	workload             string
	seed                 uint64
	trace                bool
	nRounds              int

	gate *gate
	rec  *recorder
	jobs atomic.Int64 // job ids handed out
	dirs int          // temp directories handed out

	setupRaw                []float64    // set-up seconds, unscaled
	setupSteal              float64      // share of host ticks stolen during set-up
	samples                 []float64    // calibration samples of set-up and the untraced pass
	tracing                 bool         // the traced pass is running
	extraAttempt, extraFail int          // jobs outside the timed rounds
	errs                    atomic.Int64 // failed checks, for capping the log

	calEvery int       // rounds between calibration samples
	passCap  float64   // seconds a pass of rounds may take before it stops early
	deadline time.Time // end of the running pass; zero outside passes
	workPID  int       // process doing the work: 0 = this one, else the server
	timed    []roundRec
	steal    float64
	peakMB   float64
	layers   map[string]metric
	acc      *layerAcc // traced runs: the workload pass and its cross-layer probe
	checks   int       // exact-count checks made by the layer probes
	checkErr int       // of which failed
}

func main() {
	workload := flag.String("workload", "", "paper-cold, paper-warm or serve-mix")
	seed := flag.Uint64("seed", 1, "workload seed: [run] seed of every single-kernel spec")
	seconds := flag.Float64("seconds", 18, "measured time on the reference host; sets the round count")
	traced := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	root := flag.String("root", ".", "root of the source tree under test")
	serveBin := flag.String("serve", "", "cmd/serve binary built from the tree under test (serve-mix)")
	work := flag.String("work", ".bench_build/work", "scratch directory for cache directories and traces")
	pins := flag.String("write-pins", "", "regenerate the artifact pins for seeds 1 and 977 into this file and exit")
	calib := flag.Bool("calibrate", false, "time the host-speed calibration loop once and exit (run as a child)")
	flag.Parse()
	if *calib {
		runCalibrate()
		return
	}
	if *pins != "" {
		*workload = "paper-cold"
	}

	rate, ok := roundRate[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown -workload %q", *workload))
	}
	g, err := newGate(*seed)
	if err != nil {
		fatal(err)
	}
	runDir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o777); err != nil {
		fatal(err)
	}
	defer os.RemoveAll(runDir)
	b := &bench{
		root: *root, work: runDir, serveBin: *serveBin, workload: *workload, seed: *seed,
		trace: *traced == 1, nRounds: max(2, int(math.Round(*seconds*rate))),
		calEvery: max(1, int(math.Round(calBlock*rate))),
		passCap:  *seconds*3 + 6,
		gate:     g, layers: map[string]metric{},
	}
	if b.trace {
		b.rec = newRecorder()
	}
	if *pins != "" {
		if err := b.writePins(*pins, []uint64{1, 977}); err != nil {
			fatal(err)
		}
		return
	}
	switch *workload {
	case "serve-mix":
		err = b.runServeMix()
	default:
		err = b.runPaper(*workload == "paper-warm")
	}
	if err != nil {
		os.RemoveAll(runDir)
		fatal(err)
	}
	if b.trace {
		if err := b.layerProbes(); err != nil {
			os.RemoveAll(runDir)
			fatal(err)
		}
		path := filepath.Join(*work, fmt.Sprintf("trace-%s-%d.json", *workload, *seed))
		if err := b.rec.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	}
	b.report()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

func (b *bench) nextJob() int { return int(b.jobs.Add(1)) }

// tempDir returns a fresh path under the run's directory.
func (b *bench) tempDir() string {
	b.dirs++
	return filepath.Join(b.work, fmt.Sprintf("cache-%d", b.dirs))
}

// fail reports a failed check on stderr (the first few in full).
func (b *bench) fail(err error) {
	if b.errs.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %v\n", err)
	}
}

// setUp runs the workload's set-up setupReps times, timing the
// calibration loop around each; undo, untimed, discards the previous
// repetition's state, and do is the set-up itself and returns the round
// it ran. The seconds are scaled in report, by all of the run's
// untraced samples: the few taken around set-up alone are too noisy.
func (b *bench) setUp(undo func(), do func() (roundRec, error)) error {
	t0 := readHostTicks()
	for k := 0; k < setupReps; k++ {
		cal, err := b.calibrate()
		if err != nil {
			return err
		}
		b.samples = append(b.samples, cal)
		if k > 0 {
			undo()
		}
		start := time.Now()
		r, err := do()
		b.setupRaw = append(b.setupRaw, time.Since(start).Seconds())
		if err != nil {
			return err
		}
		b.countExtra([]roundRec{r})
	}
	b.setupSteal = stealShare(t0, readHostTicks())
	return nil
}

// calibrated runs n rounds, timing the calibration loop before every
// calEvery rounds, and gives every counted round the pass's scale
// factors: CPU from the pass's samples, steal from the host ticks of the
// counted rounds. Samples of untraced passes also go to b.samples. It
// returns complete rounds only.
func (b *bench) calibrated(n int, round func(i int) roundRec) []roundRec {
	b.deadline = time.Now().Add(time.Duration(b.passCap * float64(time.Second)))
	defer func() { b.deadline = time.Time{} }()
	var samples []float64
	rounds := make([]roundRec, 0, n)
	for i := 0; i < n; i++ {
		if i%b.calEvery == 0 {
			cal, err := b.calibrate()
			if err != nil {
				fatal(err)
			}
			samples = append(samples, cal)
		}
		h0 := readHostTicks()
		r := round(i)
		h1 := readHostTicks()
		r.ticks = hostTicks{total: h1.total - h0.total, steal: h1.steal - h0.steal}
		if !r.complete {
			// A round cut short counts nowhere else, so its jobs, failed
			// ones included, are counted here.
			fmt.Fprintf(os.Stderr, "perfbench: pass stopped after %.0f s in round %d of %d\n", b.passCap, i+1, n)
			b.countExtra([]roundRec{r})
			break
		}
		rounds = append(rounds, r)
	}
	if !b.tracing {
		b.samples = append(b.samples, samples...)
	}
	// Exact counts must repeat in every round, the untraced pass's first
	// round being the reference for both passes.
	ref := rounds
	if len(b.timed) > 0 {
		ref = b.timed
	}
	if len(ref) > 0 {
		b.checkCounts(rounds, ref[0].counts)
	}
	kept, dropped := leastStolen(rounds)
	b.countExtra(dropped)
	var in hostTicks
	for _, r := range kept {
		in.total += r.ticks.total
		in.steal += r.ticks.steal
	}
	ws, cs := scale(samples, stealShare(hostTicks{}, in))
	for i := range kept {
		kept[i].wscale, kept[i].cscale = ws, cs
	}
	return kept
}

// minSelect is the round count from which a pass may drop its most
// stolen rounds.
const minSelect = 30

// leastStolen drops, of a pass with at least minSelect rounds, up to a
// third: those with the highest share of host ticks stolen, and never
// one with no stolen tick. The rest keep their original order. Such
// rounds are short (paper-warm's take about 80 ms) next to a steal
// burst, so one burst can make a whole round its slowest jobs, and the
// pooled tail of 1000-odd jobs is set by a handful of them: over ten
// runs with 1-19% steal, job_tail_s spread by 19% of its median.
// Ranking by share rather than by stolen ticks keeps a round that is
// slow through the program's own doing no likelier to be dropped.
// Longer rounds average bursts out and are all kept.
func leastStolen(rounds []roundRec) (kept, dropped []roundRec) {
	if len(rounds) < minSelect {
		return rounds, nil
	}
	share := func(r roundRec) float64 { return stealShare(hostTicks{}, r.ticks) }
	order := make([]int, len(rounds))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return share(rounds[order[a]]) > share(rounds[order[b]]) })
	drop := make([]bool, len(rounds))
	for _, i := range order[:len(rounds)/3] {
		drop[i] = rounds[i].ticks.steal > 0
	}
	for i, r := range rounds {
		if drop[i] {
			dropped = append(dropped, r)
		} else {
			kept = append(kept, r)
		}
	}
	return kept, dropped
}

func (b *bench) countExtra(rounds []roundRec) {
	for _, r := range rounds {
		for _, j := range r.jobs {
			b.extraAttempt++
			if !j.ok {
				b.extraFail++
			}
		}
	}
}

// pastDeadline reports whether the running pass is out of time. The
// cap keeps a run on a much slower host inside its time limit.
func (b *bench) pastDeadline() bool {
	return !b.deadline.IsZero() && time.Now().After(b.deadline)
}

// checkCounts fails every job of a complete round whose exact counters
// differ from want's.
func (b *bench) checkCounts(rounds []roundRec, want counts) {
	for i := range rounds {
		if !rounds[i].complete || rounds[i].counts == want {
			continue
		}
		b.fail(fmt.Errorf("round %d counters %+v differ from %+v", i, rounds[i].counts, want))
		for k := range rounds[i].jobs {
			rounds[i].jobs[k].ok = false
		}
	}
}

// measure runs the timed, untraced rounds and reads the working
// process's VmHWM over them.
func (b *bench) measure(pass func() []roundRec) error {
	if err := resetPeakRSS(b.workPID); err != nil {
		return err
	}
	t0 := readHostTicks()
	b.timed = pass()
	b.steal = stealShare(t0, readHostTicks())
	peak, err := peakRSSMB(b.workPID)
	if err != nil {
		return err
	}
	b.peakMB = peak
	return nil
}

// tracedPass repeats the timed rounds with spans on and folds them
// into acc; the untraced rounds give trace.overhead its base.
func (b *bench) tracedPass(acc *layerAcc, pass func() []roundRec) {
	b.tracing = true
	rounds := pass()
	b.countExtra(rounds)
	base := summarize(scaled(b.timed)).cpuMSPerJob
	if t := summarize(scaled(rounds)).cpuMSPerJob; base > 0 {
		b.layers["trace.overhead"] = metric{t / base, "ratio"}
	}
	if len(rounds) > 0 {
		c := rounds[0].counts
		for name, v := range map[string]int64{
			"diskcache.input_hits": c.InputHits, "diskcache.input_misses": c.InputMisses, "diskcache.input_puts": c.InputPuts,
			"diskcache.result_hits": c.ResultHits, "diskcache.result_misses": c.ResultMisses, "diskcache.result_puts": c.ResultPuts,
			"diskcache.rejects": c.Rejects, "harness.cells_computed": c.CellsComputed, "harness.cells_cached": c.CellsCached,
			"harness.cells": c.CellsComputed + c.CellsCached,
		} {
			b.layers[name] = metric{float64(v), "count/round"}
		}
	}
}

// report prints every metric with its unit, the host stamp, and the
// JSON result line.
func (b *bench) report() {
	s, raw := summarize(scaled(b.timed)), summarize(b.timed)
	attempted, failed := b.totals(s)
	metrics := map[string]metric{}
	if b.trace {
		b.layers["host.steal_share"] = metric{b.steal, "share"}
		metrics = b.layers
	} else {
		ws, _ := scale(b.samples, b.setupSteal)
		metrics["setup_s"] = metric{ws * median(b.setupRaw), "s"}
		metrics["jobs_per_s"] = metric{s.jobsPerS, "1/s"}
		metrics["job_p50_s"] = metric{s.p50, "s"}
		metrics["job_tail_s"] = metric{s.tail, "s"}
		metrics["cpu_ms_per_job"] = metric{s.cpuMSPerJob, "ms"}
		metrics["peak_rss_mb"] = metric{b.peakMB, "MB"}
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	fmt.Printf("job_tail_s is p%.1f of n=%d pooled latencies over %d complete rounds\n", s.tailPct, s.tailN, s.rounds)
	fmt.Printf("job_p50_s per kind:")
	for _, k := range keys(s.kindP50) {
		fmt.Printf(" %s=%.4g", k, s.kindP50[k])
	}
	fmt.Println()
	rawM := map[string]float64{
		"setup_s": median(b.setupRaw), "jobs_per_s": raw.jobsPerS, "job_p50_s": raw.p50,
		"job_tail_s": raw.tail, "cpu_ms_per_job": raw.cpuMSPerJob,
	}
	if !b.trace {
		fmt.Printf("unscaled: setup_s %.4g s, jobs_per_s %.4g 1/s, job_p50_s %.4g s, job_tail_s %.4g s, cpu_ms_per_job %.4g ms\n",
			rawM["setup_s"], rawM["jobs_per_s"], rawM["job_p50_s"], rawM["job_tail_s"], rawM["cpu_ms_per_job"])
	}
	var first roundRec
	if len(b.timed) > 0 {
		first = b.timed[0]
	}
	stamp := map[string]any{
		"workload": b.workload, "seed": b.seed, "trace": b.trace, "rounds": s.rounds,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "cpu_model": cpuModel(),
		"go_version": runtime.Version(), "commit": commit(b.root),
		"host_steal_share": b.steal, "cpu_over_wall": raw.cpu / math.Max(raw.wall, 1e-9),
		"unscaled": rawM, "cal_scale": [2]float64{first.wscale, first.cscale}, "cal_samples": b.samples,
		"round_counts": first.counts,
	}
	sj, _ := json.Marshal(stamp)
	fmt.Printf("host %s\n", sj)
	out, _ := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics,
	})
	fmt.Println(string(out))
}

// totals returns the run's attempted and failed jobs and checks: those
// of the timed rounds (s) and every other one the run made.
func (b *bench) totals(s summary) (attempted, failed int) {
	return s.attempted + b.extraAttempt + b.checks, s.failed + b.extraFail + b.checkErr
}

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

// commit identifies the code under test: $PERFBENCH_COMMIT when run.sh
// found a git revision, else a SHA-256 over the tree's Go sources,
// go.mod files and specs (the benchmark's checkout is not a git
// repository).
func commit(root string) string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || strings.HasSuffix(n, ".toml")) {
			data, err := os.ReadFile(path)
			if err == nil {
				fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
				h.Write(data)
			}
		}
		return nil
	})
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}
