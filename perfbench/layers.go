package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"pargraph/internal/coloring"
	"pargraph/internal/concomp"
	"pargraph/internal/diskcache"
	"pargraph/internal/graph"
	"pargraph/internal/list"
	"pargraph/internal/listrank"
	"pargraph/internal/mta"
	"pargraph/internal/runner"
	"pargraph/internal/sim"
	"pargraph/internal/smp"
)

// layerAcc accumulates a traced run's per-layer observations. In-process
// rounds feed the runner, harness, sweep and cache layers; served
// rounds feed jobqueue and serve.
type layerAcc struct {
	mu                    sync.Mutex
	inRounds, serveRounds int

	sweepInputs, sweepInputBytes float64
	bytesRead, bytesWritten      float64 // in-process rounds only
	servedRead, servedWritten    float64
	cells                        []float64
	cellBusy, runWall            float64

	wait, run                map[string][]float64 // by class
	submit, status, artifact []float64
	polls, served            int
	httpErrors               int
}

func newLayerAcc() *layerAcc {
	return &layerAcc{wait: map[string][]float64{}, run: map[string][]float64{}}
}

// addRun folds in one in-process job; cells are its sweep-cell seconds
// and run its RunContext wall seconds.
func (a *layerAcc) addRun(res *runner.Result, cells []float64, run float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, in := range res.Manifest.Inputs {
		a.sweepInputs++
		a.sweepInputBytes += float64(in.Bytes)
	}
	a.bytesRead += float64(res.InputStats.BytesRead + res.ResultStats.BytesRead)
	a.bytesWritten += float64(res.InputStats.BytesWritten + res.ResultStats.BytesWritten)
	for _, c := range cells {
		a.cells = append(a.cells, c)
		a.cellBusy += c
	}
	a.runWall += run
}

// addServed folds in one served job.
func (a *layerAcc) addServed(class string, wait, run, submit float64, status []float64, fetch float64, polls int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.wait[class] = append(a.wait[class], wait)
	a.run[class] = append(a.run[class], run)
	a.submit = append(a.submit, submit)
	a.status = append(a.status, status...)
	a.artifact = append(a.artifact, fetch)
	a.polls += polls
	a.served++
}

func (a *layerAcc) addBytes(in, res diskcache.Stats) {
	a.mu.Lock()
	a.servedRead += float64(in.BytesRead + res.BytesRead)
	a.servedWritten += float64(in.BytesWritten + res.BytesWritten)
	a.mu.Unlock()
}

func (a *layerAcc) httpError() {
	a.mu.Lock()
	a.httpErrors++
	a.mu.Unlock()
}

// export turns the accumulated observations into per-layer metrics,
// per round where they are totals.
func (a *layerAcc) export(b *bench) {
	in, sv := float64(max(a.inRounds, 1)), float64(max(a.serveRounds, 1))
	self := layerSelf(b.rec.spans)
	set := b.set
	set("sweep.inputs", a.sweepInputs/in, "count/round")
	set("sweep.input_bytes", a.sweepInputBytes/in, "B/round")
	if b.workload == "serve-mix" {
		set("diskcache.bytes_read", a.servedRead/sv, "B/round")
		set("diskcache.bytes_written", a.servedWritten/sv, "B/round")
	} else {
		set("diskcache.bytes_read", a.bytesRead/in, "B/round")
		set("diskcache.bytes_written", a.bytesWritten/in, "B/round")
	}
	set("harness.cell_p50_s", median(a.cells), "s")
	set("harness.cell_busy_s", a.cellBusy/in, "s/round")
	if a.runWall > 0 {
		set("harness.cell_overlap", a.cellBusy/a.runWall, "ratio")
	}
	set("runner.self_s", self["runner"]/in, "s/round")
	set("spec.parse_s", self["spec"]/in, "s/round")
	set("manifest.hash_s", self["manifest"]/in, "s/round")
	for _, class := range []string{"warm", "cold"} {
		tail, _ := tailPercentile(a.wait[class], 10)
		set("jobqueue."+class+".wait_p50_s", median(a.wait[class]), "s")
		set("jobqueue."+class+".wait_tail_s", tail, "s")
		set("jobqueue."+class+".run_p50_s", median(a.run[class]), "s")
	}
	set("serve.submit_s", median(a.submit), "s")
	set("serve.status_s", median(a.status), "s")
	set("serve.artifact_s", median(a.artifact), "s")
	set("serve.polls_per_job", float64(a.polls)/float64(max(a.served, 1)), "count")
	set("serve.http_errors", float64(a.httpErrors), "count")
}

// cpuOf runs f and returns the process CPU seconds it used.
func cpuOf(f func()) float64 {
	c0 := selfCPU()
	f()
	return selfCPU() - c0
}

// layerProbes times direct calls into the engine, codec and cache
// packages on the round's own inputs, and exports everything the
// traced run gathered.
func (b *bench) layerProbes() error {
	if b.acc != nil {
		b.acc.export(b)
	}
	set := b.set
	done := b.probe("build")
	var l *list.List
	var gnm, rmat *graph.Graph
	set("list.build_cpu_s", cpuOf(func() { l = list.New(listN, list.Random, b.seed) }), "s")
	set("graph.build_cpu_s", cpuOf(func() {
		gnm = graph.RandomGnm(graphN, graphM, b.seed)
		rmat = graph.RMAT(14, graphM, b.seed)
	}), "s")
	done()

	if err := b.codecProbes(l, gnm, rmat); err != nil {
		return err
	}
	b.engineProbes(l, gnm, rmat)
	return nil
}

// set records one per-layer metric.
func (b *bench) set(name string, v float64, unit string) { b.layers[name] = metric{v, unit} }

// probe opens a top-level span around one layer probe and returns the
// function that closes it.
func (b *bench) probe(name string) func() {
	id := b.rec.begin("probe."+name, 0, -1)
	return func() { b.rec.end(id) }
}

// codecProbes measures binenc (the inputs' binary codecs) and diskcache
// Put/Get on the encoded inputs.
func (b *bench) codecProbes(l *list.List, gnm, rmat *graph.Graph) error {
	const reps = 5
	set := b.set
	done := b.probe("binenc")
	var blobs [][]byte
	enc := cpuOf(func() {
		for r := 0; r < reps; r++ {
			blobs = blobs[:0]
			for _, m := range []interface{ MarshalBinary() ([]byte, error) }{l, gnm, rmat} {
				data, err := m.MarshalBinary()
				if err != nil {
					panic(err) // in-memory encoding of a valid value cannot fail
				}
				blobs = append(blobs, data)
			}
		}
	}) / reps
	total := 0
	for _, d := range blobs {
		total += len(d)
	}
	var decErr error
	dec := cpuOf(func() {
		for r := 0; r < reps; r++ {
			var l2 list.List
			var g2, g3 graph.Graph
			for i, u := range []interface{ UnmarshalBinary([]byte) error }{&l2, &g2, &g3} {
				if err := u.UnmarshalBinary(blobs[i]); err != nil {
					decErr = err
				}
			}
		}
	}) / reps
	done()
	if decErr != nil {
		return fmt.Errorf("binenc probe: %w", decErr)
	}
	set("binenc.encode_cpu_s", enc, "s")
	set("binenc.decode_cpu_s", dec, "s")
	set("binenc.decode_mb_per_cpu_s", float64(total)/1e6/dec, "MB/s")

	done = b.probe("diskcache")
	st, err := diskcache.Open(b.tempDir(), "perfbench-probe")
	if err != nil {
		return err
	}
	var puts, gets []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for i, d := range blobs {
			if err := st.Put(fmt.Sprintf("%d/%d", r, i), d); err != nil {
				return err
			}
		}
		puts = append(puts, time.Since(t0).Seconds())
		t0 = time.Now()
		for i := range blobs {
			if _, ok := st.Get(fmt.Sprintf("%d/%d", r, i)); !ok {
				return fmt.Errorf("diskcache probe: entry %d/%d missing", r, i)
			}
		}
		gets = append(gets, time.Since(t0).Seconds())
	}
	done()
	set("diskcache.put_s", median(puts), "s")
	set("diskcache.get_s", median(gets), "s")
	return nil
}

// engineProbes times the simulated machines on the round's kernels,
// runs each kernel twice to check its exact counts repeat, measures
// host-parallel replay speed-up, and times the region scheduler on
// regions sized from the list-ranking kernel's own trace.
func (b *bench) engineProbes(l *list.List, gnm, rmat *graph.Graph) {
	set := b.set
	nwalk := listN / 10 // listrank's default nodes per walk
	var regionItems []int

	done := b.probe("mta")
	type mtaCount struct {
		cycles  float64
		refs    int64
		regions int
	}
	var mtaCPU float64
	var mc [2]mtaCount
	for rep := 0; rep < 2; rep++ {
		for k, run := range []func(*mta.Machine){
			func(m *mta.Machine) { listrank.RankMTA(l, m, nwalk, sim.SchedDynamic) },
			func(m *mta.Machine) { concomp.LabelMTA(gnm, m, sim.SchedDynamic) },
			func(m *mta.Machine) { coloring.ColorMTA(rmat, m, sim.SchedDynamic) },
		} {
			m := mta.New(mta.DefaultConfig(8))
			m.SetHostWorkers(0)
			if k == 0 && rep == 0 {
				m.EnableTrace()
			}
			mtaCPU += cpuOf(func() { run(m) })
			st := m.Stats()
			mc[rep].cycles += st.Cycles
			mc[rep].refs += st.Refs
			mc[rep].regions += st.Regions
			for _, r := range m.Trace() {
				if r.Kind == "parallel" {
					regionItems = append(regionItems, r.Items)
				}
			}
		}
	}
	done()
	b.exactCheck("mta", mc[0] == mc[1], mc)
	mtaCPU /= 2
	set("mta.cpu_s", mtaCPU, "s")
	set("mta.cycles", mc[0].cycles, "cycles")
	set("mta.refs", float64(mc[0].refs), "count")
	set("mta.regions", float64(mc[0].regions), "count")
	set("mta.ns_per_ref", 1e9*mtaCPU/float64(mc[0].refs), "ns")
	set("mta.mcycles_per_cpu_s", mc[0].cycles/1e6/mtaCPU, "Mcycles/s")

	done = b.probe("smp")
	type smpCount struct {
		cycles       float64
		refs, misses int64
		phases       int
	}
	var smpCPU float64
	var sc [2]smpCount
	for rep := 0; rep < 2; rep++ {
		for _, run := range []func(*smp.Machine){
			func(m *smp.Machine) { listrank.RankSMP(l, m, 8, b.seed) },
			func(m *smp.Machine) { concomp.LabelSMP(gnm, m) },
			func(m *smp.Machine) { coloring.ColorSMP(rmat, m) },
		} {
			m := smp.New(smp.DefaultConfig(8))
			m.SetHostWorkers(0)
			smpCPU += cpuOf(func() { run(m) })
			st := m.Stats()
			sc[rep].cycles += st.Cycles
			sc[rep].refs += st.L1Hits + st.L2Hits + st.Misses
			sc[rep].misses += st.Misses
			sc[rep].phases += st.Phases
		}
	}
	done()
	b.exactCheck("smp", sc[0] == sc[1], sc)
	smpCPU /= 2
	set("smp.cpu_s", smpCPU, "s")
	set("smp.cycles", sc[0].cycles, "cycles")
	set("smp.refs", float64(sc[0].refs), "count")
	set("smp.phases", float64(sc[0].phases), "count")
	set("smp.miss_ratio", float64(sc[0].misses)/float64(sc[0].refs), "ratio")
	set("smp.ns_per_ref", 1e9*smpCPU/float64(sc[0].refs), "ns")
	set("smp.mcycles_per_cpu_s", sc[0].cycles/1e6/smpCPU, "Mcycles/s")

	done = b.probe("par")
	wall := func(workers int) float64 {
		var ts []float64
		for r := 0; r < 3; r++ {
			m := mta.New(mta.DefaultConfig(8))
			m.SetHostWorkers(workers)
			t0 := time.Now()
			listrank.RankMTA(l, m, nwalk, sim.SchedDynamic)
			ts = append(ts, time.Since(t0).Seconds())
		}
		return median(ts)
	}
	set("par.speedup", wall(1)/wall(0), "ratio")
	done()

	done = b.probe("sim")
	sort.Ints(regionItems)
	n := regionItems[len(regionItems)-1]
	cfg := mta.DefaultConfig(8)
	set("sim.few_class_ns_per_item", regionNS(cfg, n, 4), "ns")
	set("sim.many_class_ns_per_item", regionNS(cfg, n, 128), "ns")
	done()
}

// exactCheck counts one exact-repeat check of a probe's engine counts.
func (b *bench) exactCheck(what string, ok bool, got any) {
	b.checks++
	if !ok {
		b.checkErr++
		b.fail(fmt.Errorf("%s counts differ between two runs of the same kernels: %+v", what, got))
	}
}

// regionNS returns the thread CPU nanoseconds per item of
// sim.RunRegion on an n-item region whose items fall into the given
// number of (Issue, Crit) classes, repeated for at least 0.2 s of CPU.
func regionNS(cfg mta.Config, n, classes int) float64 {
	items := make([]sim.Item, n)
	for i := range items {
		k := float64(i % classes)
		items[i] = sim.Item{Issue: 12 + k, Crit: 12 + k + cfg.MemLatency*(3+float64(i%classes%7))}
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	reps := 0
	for threadCPU()-c0 < 0.2 {
		sim.RunRegion(cfg.Procs, cfg.UseStreams, items, sim.SchedDynamic)
		reps++
	}
	return 1e9 * (threadCPU() - c0) / float64(reps*n)
}
