package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"pargraph/internal/harness"
	"pargraph/internal/manifest"
	"pargraph/internal/runner"
	"pargraph/internal/spec"
)

// inproc drives rounds through runner.RunContext in this process, one
// closed-loop client.
type inproc struct {
	b   *bench
	rec *recorder // nil when untraced
	acc *layerAcc // nil when untraced
}

// runJob runs one job against cache directory dir and checks its
// outputs.
func (x *inproc) runJob(j jobDef, dir string, c *counts) jobRec {
	jr := jobRec{kind: j.kind, class: j.class}
	id := x.b.nextJob()
	t0 := time.Now()
	top := x.rec.begin("bench.job", id, -1)
	defer x.rec.end(top)

	ps := x.rec.begin("spec.parse", id, top)
	sp, err := spec.Parse([]byte(j.text))
	if err == nil {
		sp.Run.CacheDir = dir
		err = sp.Validate()
	}
	x.rec.end(ps)
	if err != nil {
		x.b.fail(fmt.Errorf("%s: %w", j.kind, err))
		return jr
	}

	o := runner.Options{Stdout: io.Discard, Stderr: io.Discard}
	rs := x.rec.begin("runner.RunContext", id, top)
	var cells []float64
	if x.rec != nil {
		o.CellObserver = func(sec float64) {
			x.rec.add("harness.cell", id, rs, time.Now(), time.Duration(sec*float64(time.Second)))
			x.acc.mu.Lock()
			cells = append(cells, sec)
			x.acc.mu.Unlock()
		}
	}
	res, err := runner.RunContext(context.Background(), sp, o)
	x.rec.end(rs)
	run := time.Since(t0)
	if err != nil {
		x.b.fail(fmt.Errorf("%s: %w", j.kind, err))
		return jr
	}
	arts := make([]artifact, len(res.Artifacts))
	for i, a := range res.Artifacts {
		arts[i] = artifact{a.Name, a.Data}
	}
	jr.lat = run.Seconds()
	gs := x.rec.begin("bench.gate", id, top)
	err = x.b.gate.check(j, arts)
	x.rec.end(gs)
	if err != nil {
		x.b.fail(err)
		return jr
	}
	jr.ok = true
	c.addRun(res.InputStats, res.ResultStats, res.Manifest.Results)
	if x.acc != nil {
		x.acc.addRun(res, cells, run.Seconds())
		hs := x.rec.begin("manifest.hash", id, top)
		if err := rebuildManifest(sp, res); err != nil {
			x.b.fail(fmt.Errorf("%s: %w", j.kind, err))
			jr.ok = false
		}
		x.rec.end(hs)
	}
	return jr
}

// rebuildManifest repeats the manifest work RunContext does for a job,
// which no span can reach inside it: a new manifest for the spec, the
// job's input and result records, every artifact hashed in, and the
// encoding. It runs after the job's latency is taken.
func rebuildManifest(sp *spec.Spec, res *runner.Result) error {
	m := manifest.New(sp.Canonical(), sp.Hash(), harness.InputSchema)
	m.Inputs = append(m.Inputs, res.Manifest.Inputs...)
	m.Results = append(m.Results, res.Manifest.Results...)
	for _, a := range res.Artifacts {
		m.AddArtifact(a.Name, a.Path, a.Data)
	}
	_, err := m.Encode()
	return err
}

// runRound runs the jobs in order against dir. A forced GC precedes
// every job, outside its timed window, so no job pays for an earlier
// job's garbage; the round's wall and CPU are the sums over its jobs.
// Past the pass deadline it starts no more jobs and the round is left
// incomplete.
func (x *inproc) runRound(jobs []jobDef, dir string) roundRec {
	r := roundRec{complete: true}
	for _, j := range jobs {
		if x.b.pastDeadline() {
			r.complete = false
			break
		}
		runtime.GC()
		c0, t0 := selfCPU(), time.Now()
		r.jobs = append(r.jobs, x.runJob(j, dir, &r.counts))
		r.wall += time.Since(t0).Seconds()
		r.cpu += selfCPU() - c0
	}
	return r
}

// runPaper runs the paper-cold (warm=false) or paper-warm workload.
//
// Set-up: paper-cold discards whole cold rounds, each in a fresh cache
// directory; paper-warm fills a fresh cache directory with one cold
// round. Either is repeated setupReps times and setup_s is their
// median. The timed rounds follow; paper-cold gives every round a
// fresh empty cache directory.
func (b *bench) runPaper(warm bool) error {
	jobs, err := paperRound(b.root, b.seed)
	if err != nil {
		return err
	}
	var filled string
	err = b.setUp(func() { os.RemoveAll(filled) }, func() (roundRec, error) {
		filled = b.tempDir()
		return (&inproc{b: b}).runRound(jobs, filled), nil
	})
	if err != nil {
		return err
	}
	defer os.RemoveAll(filled)
	debug.FreeOSMemory()

	pass := func(x *inproc) []roundRec {
		return b.calibrated(b.nRounds, func(int) roundRec {
			dir := filled
			if !warm {
				dir = b.tempDir()
				defer os.RemoveAll(dir)
			}
			return x.runRound(jobs, dir)
		})
	}
	if err := b.measure(func() []roundRec { return pass(&inproc{b: b}) }); err != nil {
		return err
	}
	if !b.trace {
		return nil
	}
	acc := newLayerAcc()
	b.tracedPass(acc, func() []roundRec { return pass(&inproc{b: b, rec: b.rec, acc: acc}) })
	acc.inRounds += b.nRounds
	b.acc = acc
	// The jobqueue and serve layers are not on this workload's path:
	// measure them on the filled cache through an in-process server.
	return b.serveProbe(filled, acc)
}
