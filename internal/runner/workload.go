package runner

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"time"

	"pargraph/internal/binenc"
	"pargraph/internal/coloring"
	"pargraph/internal/concomp"
	"pargraph/internal/gio"
	"pargraph/internal/graph"
	"pargraph/internal/list"
	"pargraph/internal/listrank"
	"pargraph/internal/mta"
	"pargraph/internal/sim"
	"pargraph/internal/smp"
	"pargraph/internal/spec"
	"pargraph/internal/sweep"
	"pargraph/internal/trace"
)

// The single-run commands (coloring, listrank, concomp) resolve their
// inputs through a private sweep.Cache so the manifest hook observes
// them exactly like the harness sweeps' inputs, under the same typed
// keys — spec-driven and harness-driven runs of one workload record
// the same input identity.

// workloadCache returns the run's input cache, backed by the Env's
// persistent store when one is attached and hooked to the Env's input
// hook (the manifest log) when one is active. DIMACS inputs are keyed
// by path, not content, so a file-loaded workload stays memory-only — a
// persistent entry could outlive an edit to the file it claims to
// represent.
func (rc *runCtx) workloadCache() *sweep.Cache {
	return rc.env.NewInputCache(rc.sp.Workload.Input == "")
}

// memoWorkload wraps a single-run workload body in the result cache.
// The cached payload is the run's rendered stdout bytes plus its
// recorded trace events, so a warm run replays byte-identical
// artifacts without simulating; verification happened when the entry
// was computed and the verify flag is part of the cell key. Runs that
// cannot be keyed on content (DIMACS inputs are path-keyed) or whose
// stdout is not a pure function of the cell (-trace region dumps share
// the RegionTrace restriction with manifests) always compute.
func (rc *runCtx) memoWorkload(cellCfg string, inputs []string, rec *trace.Recorder,
	compute func() ([]byte, error)) ([]byte, error) {
	store, hook := rc.env.ResultStore, rc.env.ResultHook
	if (store == nil && hook == nil) || rc.sp.Workload.Input != "" || rc.o.RegionTrace {
		return compute()
	}
	mode := "notrace"
	if rec != nil {
		mode = "trace"
	}
	key := sweep.ResultKey(sim.CostSchemaVersion, cellCfg+"|"+mode, inputs...)
	if store != nil {
		if data, ok := store.Get(key); ok {
			if out, rest, ok := binenc.ConsumeBytes(data); ok {
				if evs, rest, ok := trace.ConsumeEvents(rest); ok && len(rest) == 0 {
					if rec != nil {
						rec.Events = append(rec.Events, evs...)
					}
					if hook != nil {
						hook(key, true)
					}
					return out, nil
				}
			}
		}
	}
	out, err := compute()
	if err != nil {
		return nil, err
	}
	if store != nil {
		var evs []trace.Event
		if rec != nil {
			evs = rec.Events
		}
		store.Put(key, trace.AppendEvents(binenc.AppendBytes(nil, out), evs))
	}
	if hook != nil {
		hook(key, false)
	}
	return out, nil
}

// buildGraph resolves the workload's graph — from the DIMACS input
// file when set, else from the named generator — through the cache,
// returning the graph's content key for deriving reference keys.
func buildGraph(c *sweep.Cache, w *spec.Workload, seed uint64) (string, *graph.Graph, error) {
	if w.Input != "" {
		key := sweep.DIMACSKey(w.Input)
		g, err := sweep.GetAs(c, key, func() (*graph.Graph, error) {
			f, err := os.Open(w.Input)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return gio.ReadDIMACS(f)
		})
		return key, g, err
	}
	var key string
	var build func() (*graph.Graph, error)
	switch w.Gen {
	case "gnm":
		key = sweep.GnmKey(w.N, w.M, seed)
		build = func() (*graph.Graph, error) { return graph.RandomGnm(w.N, w.M, seed), nil }
	case "rmat":
		scale := 0
		for 1<<scale < w.N {
			scale++
		}
		if scale < 1 {
			scale = 1
		}
		key = sweep.RMATKey(scale, w.M, seed)
		build = func() (*graph.Graph, error) { return graph.RMAT(scale, w.M, seed), nil }
	case "mesh2d":
		key = sweep.Mesh2DKey(w.Rows, w.Cols)
		build = func() (*graph.Graph, error) { return graph.Mesh2D(w.Rows, w.Cols), nil }
	case "mesh3d":
		key = sweep.Mesh3DKey(w.Rows, w.Cols, w.Depth)
		build = func() (*graph.Graph, error) { return graph.Mesh3D(w.Rows, w.Cols, w.Depth), nil }
	default: // torus; the spec validator already rejected unknown names
		key = sweep.Torus2DKey(w.Rows, w.Cols)
		build = func() (*graph.Graph, error) { return graph.Torus2D(w.Rows, w.Cols), nil }
	}
	g, err := sweep.GetAs(c, key, build)
	return key, g, err
}

// traceArtifacts renders and writes the trace / attribution artifacts
// a workload run requested, recording them in the manifest.
func (rc *runCtx) traceArtifacts(rec *trace.Recorder) error {
	if rec == nil {
		return nil
	}
	sp := rc.sp
	if sp.Output.Trace != "" {
		var tb bytes.Buffer
		if err := rec.WriteChromeTrace(&tb); err != nil {
			return err
		}
		if err := rc.emit("trace", sp.Output.Trace, tb.Bytes(), "wrote Chrome trace to %s\n"); err != nil {
			return err
		}
	}
	if sp.Output.Attr != "" {
		var ab bytes.Buffer
		if err := rec.WriteAttributionCSV(&ab); err != nil {
			return err
		}
		if err := rc.emit("attr", sp.Output.Attr, ab.Bytes(), "wrote attribution CSV to %s\n"); err != nil {
			return err
		}
	}
	return nil
}

// simulate is the one path every simulated single-run cell takes: body
// renders the cell's stdout into buf, recording into rec (nil unless
// the spec asked for a trace or attribution artifact); the result cache
// memoizes the bytes under cellCfg and inputs, whose references the
// caller has already resolved; then the trace artifacts and stdout are
// written.
func (rc *runCtx) simulate(cellCfg string, inputs []string,
	body func(buf *bytes.Buffer, rec *trace.Recorder) error) error {
	var rec *trace.Recorder
	if rc.sp.Output.Trace != "" || rc.sp.Output.Attr != "" {
		rec = &trace.Recorder{}
	}
	out, err := rc.memoWorkload(cellCfg, inputs, rec, func() ([]byte, error) {
		var buf bytes.Buffer
		if err := body(&buf, rec); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
	if err != nil {
		return err
	}
	if err := rc.traceArtifacts(rec); err != nil {
		return err
	}
	return rc.finish(out, true)
}

// finish writes a workload's stdout and records it in the manifest.
// Output that is not deterministic — host kernels print wall clock,
// which no manifest can promise to reproduce — is only kept for a
// collected run (a served job's client still wants it).
func (rc *runCtx) finish(out []byte, deterministic bool) error {
	if _, err := rc.o.Stdout.Write(out); err != nil {
		return err
	}
	if deterministic {
		rc.record("stdout", "", out)
	} else {
		rc.keep("stdout", "", out)
	}
	return nil
}

// newMTA builds the workload's MTA machine: the spec's processor count,
// the run's host workers, the per-region trace when -trace asked for
// it, and rec as the event sink when recording.
func (rc *runCtx) newMTA(rec *trace.Recorder) *mta.Machine {
	m := mta.New(mta.DefaultConfig(rc.sp.Workload.Procs))
	m.SetHostWorkers(rc.env.HostWorkers)
	if rc.o.RegionTrace {
		m.EnableTrace()
	}
	if rec != nil {
		m.SetSink(rec)
	}
	return m
}

// newSMP is newMTA for the SMP machine.
func (rc *runCtx) newSMP(rec *trace.Recorder) *smp.Machine {
	m := smp.New(smp.DefaultConfig(rc.sp.Workload.Procs))
	m.SetHostWorkers(rc.env.HostWorkers)
	if rc.o.RegionTrace {
		m.EnableTrace()
	}
	if rec != nil {
		m.SetSink(rec)
	}
	return m
}

// writeSMPRefs writes an SMP run's memory-hierarchy line: total
// references, the share served by each level, and the barrier count.
func writeSMPRefs(buf *bytes.Buffer, st smp.Stats) {
	total := st.L1Hits + st.L2Hits + st.Misses
	fmt.Fprintf(buf, "refs=%d  L1 %.1f%%  L2 %.1f%%  mem %.1f%%  barriers=%d\n",
		total,
		100*float64(st.L1Hits)/float64(total),
		100*float64(st.L2Hits)/float64(total),
		100*float64(st.Misses)/float64(total),
		st.Barriers)
}

// writeGraphMTA and writeGraphSMP write the machine summary the graph
// kernels (coloring, concomp) share; list ranking prints its own.
func writeGraphMTA(buf *bytes.Buffer, name string, m *mta.Machine) {
	st := m.Stats()
	fmt.Fprintf(buf, "machine=%s p=%d\n", name, m.Config().Procs)
	fmt.Fprintf(buf, "simulated: %.6f s (%.0f cycles)\n", m.Seconds(), m.Cycles())
	fmt.Fprintf(buf, "utilization: %.1f%%  refs=%d regions=%d barriers=%d\n",
		m.Utilization()*100, st.Refs, st.Regions, st.Barriers)
}

func writeGraphSMP(buf *bytes.Buffer, m *smp.Machine) {
	fmt.Fprintf(buf, "machine=SMP p=%d\n", m.Config().Procs)
	fmt.Fprintf(buf, "simulated: %.6f s (%.0f cycles)\n", m.Seconds(), m.Cycles())
	writeSMPRefs(buf, m.Stats())
}

// schedOf maps the workload's sched name to the region scheduler.
func schedOf(w *spec.Workload) sim.Sched {
	if w.Sched == "block" {
		return sim.SchedBlock
	}
	return sim.SchedDynamic
}

// runColoring is cmd/coloring's execution body. Every machine's stdout
// is deterministic, so every run records it.
func (rc *runCtx) runColoring() error {
	sp := rc.sp
	w := &sp.Workload
	cache := rc.workloadCache()

	gKey, g, err := buildGraph(cache, w, sp.Run.Seed)
	if err != nil {
		return err
	}

	header := fmt.Sprintf("graph: %s n=%d m=%d maxdeg=%d\n", w.Gen, g.N, g.M(), g.MaxDegree())
	printStats := func(buf *bytes.Buffer, st coloring.Stats) {
		parts := make([]string, len(st.Conflicts))
		for i, c := range st.Conflicts {
			parts[i] = fmt.Sprintf("%d", c)
		}
		fmt.Fprintf(buf, "colors: %d  rounds: %d  conflicts/round: %s (total %d)\n",
			st.Colors, st.Rounds, strings.Join(parts, ","), st.TotalConflicts())
	}
	reference := func() ([]int32, error) {
		return sweep.GetAs(cache, sweep.SpecRefKey(gKey), func() ([]int32, error) {
			ref, _ := coloring.Speculative(g)
			return ref, nil
		})
	}
	checkRef := func(color []int32) error {
		want, err := reference()
		if err != nil {
			return err
		}
		for i := range want {
			if want[i] != color[i] {
				return fmt.Errorf("VERIFICATION FAILED: color[%d] = %d, host reference says %d", i, color[i], want[i])
			}
		}
		return nil
	}
	validate := func(buf *bytes.Buffer, color []int32) error {
		if !w.Verify {
			return nil
		}
		if err := coloring.Validate(g, color); err != nil {
			return fmt.Errorf("VERIFICATION FAILED: %v", err)
		}
		fmt.Fprintln(buf, "coloring verified ok")
		return nil
	}

	switch w.Machine {
	case "mta", "smp":
		inputs := []string{gKey}
		if w.Verify {
			// Resolve the host reference before consulting the result
			// cache, so a warm run's manifest still records the
			// complete input set.
			if _, err := reference(); err != nil {
				return err
			}
			inputs = append(inputs, sweep.SpecRefKey(gKey))
		}
		return rc.simulate(
			fmt.Sprintf("wl/coloring/%s/p=%d/sched=%s/verify=%t", w.Machine, w.Procs, w.Sched, w.Verify),
			inputs, func(buf *bytes.Buffer, rec *trace.Recorder) error {
				buf.WriteString(header)
				var color []int32
				var st coloring.Stats
				if w.Machine == "mta" {
					m := rc.newMTA(rec)
					color, st = coloring.ColorMTA(g, m, schedOf(w))
					writeGraphMTA(buf, "MTA", m)
				} else {
					m := rc.newSMP(rec)
					color, st = coloring.ColorSMP(g, m)
					writeGraphSMP(buf, m)
				}
				printStats(buf, st)
				if w.Verify {
					if err := checkRef(color); err != nil {
						return err
					}
				}
				return validate(buf, color)
			})
	}

	var buf bytes.Buffer
	buf.WriteString(header)
	var color []int32
	if w.Machine == "spec" {
		var st coloring.Stats
		color, st = coloring.Speculative(g)
		fmt.Fprintln(&buf, "machine=host(speculative rounds)")
		printStats(&buf, st)
	} else { // seq
		color = coloring.Sequential(g)
		max := int32(-1)
		for _, c := range color {
			if c > max {
				max = c
			}
		}
		fmt.Fprintf(&buf, "machine=sequential(first-fit)\ncolors: %d\n", max+1)
	}
	if err := validate(&buf, color); err != nil {
		return err
	}
	return rc.finish(buf.Bytes(), true)
}

// runListrank is cmd/listrank's execution body. The stdout artifact is
// recorded only for the simulated machines — native and seq print wall
// clock.
func (rc *runCtx) runListrank() error {
	sp := rc.sp
	w := &sp.Workload

	lay := list.Random
	switch w.Layout {
	case "ordered":
		lay = list.Ordered
	case "clustered":
		lay = list.Clustered
	}
	lKey := sweep.ListKey(w.N, lay.String(), sp.Run.Seed)
	l, err := sweep.GetAs(rc.workloadCache(), lKey,
		func() (*list.List, error) { return list.New(w.N, lay, sp.Run.Seed), nil })
	if err != nil {
		return err
	}

	verify := func(buf *bytes.Buffer, rank []int64) error {
		if !w.Verify {
			return nil
		}
		if err := l.VerifyRanks(rank); err != nil {
			return fmt.Errorf("VERIFICATION FAILED: %v", err)
		}
		fmt.Fprintln(buf, "ranks verified ok")
		return nil
	}

	switch w.Machine {
	case "mta":
		return rc.simulate(
			fmt.Sprintf("wl/listrank/mta/p=%d/sched=%s/npw=%d/verify=%t", w.Procs, w.Sched, w.NodesPerWalk, w.Verify),
			[]string{lKey}, func(buf *bytes.Buffer, rec *trace.Recorder) error {
				m := rc.newMTA(rec)
				rank := listrank.RankMTA(l, m, w.N/w.NodesPerWalk, schedOf(w))
				st := m.Stats()
				fmt.Fprintf(buf, "machine=MTA p=%d n=%d layout=%s\n", w.Procs, w.N, lay)
				fmt.Fprintf(buf, "simulated: %.6f s (%.0f cycles at %.0f MHz)\n", m.Seconds(), m.Cycles(), m.Config().ClockMHz)
				fmt.Fprintf(buf, "utilization: %.1f%%  refs=%d instrs=%d regions=%d barriers=%d\n",
					m.Utilization()*100, st.Refs, st.Instrs, st.Regions, st.Barriers)
				if rc.o.RegionTrace {
					m.WriteTrace(buf)
				}
				return verify(buf, rank)
			})
	case "smp":
		return rc.simulate(
			fmt.Sprintf("wl/listrank/smp/p=%d/sublists=%d/seed=%d/verify=%t", w.Procs, w.Sublists, sp.Run.Seed, w.Verify),
			[]string{lKey}, func(buf *bytes.Buffer, rec *trace.Recorder) error {
				m := rc.newSMP(rec)
				rank := listrank.RankSMP(l, m, w.Sublists*w.Procs, sp.Run.Seed^0xfeed)
				fmt.Fprintf(buf, "machine=SMP p=%d n=%d layout=%s\n", w.Procs, w.N, lay)
				fmt.Fprintf(buf, "simulated: %.6f s (%.0f cycles at %.0f MHz)\n", m.Seconds(), m.Cycles(), m.Config().ClockMHz)
				writeSMPRefs(buf, m.Stats())
				if rc.o.RegionTrace {
					m.WriteTrace(buf)
				}
				return verify(buf, rank)
			})
	}

	var buf bytes.Buffer
	var rank []int64
	start := time.Now()
	if w.Machine == "native" {
		rank = listrank.HelmanJaja(l, w.Procs)
		fmt.Fprintf(&buf, "machine=native(goroutines) p=%d n=%d layout=%s\n", w.Procs, w.N, lay)
	} else { // seq
		rank = listrank.Sequential(l)
		fmt.Fprintf(&buf, "machine=sequential n=%d layout=%s\n", w.N, lay)
	}
	fmt.Fprintf(&buf, "wall clock: %.6f s\n", time.Since(start).Seconds())
	if err := verify(&buf, rank); err != nil {
		return err
	}
	return rc.finish(buf.Bytes(), false)
}

// runConcomp is cmd/concomp's execution body. As with listrank, only
// the simulated machines' stdout is recorded in the manifest.
func (rc *runCtx) runConcomp() error {
	sp, o := rc.sp, rc.o
	w := &sp.Workload
	cache := rc.workloadCache()

	gKey, g, err := buildGraph(cache, w, sp.Run.Seed)
	if err != nil {
		return err
	}
	if o.DumpGraph != "" {
		f, err := os.Create(o.DumpGraph)
		if err != nil {
			return err
		}
		if err := gio.WriteDIMACS(f, g); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	header := fmt.Sprintf("graph: %s n=%d m=%d\n", w.Gen, g.N, g.M())
	reference := func() ([]int32, error) {
		return sweep.GetAs(cache, sweep.UnionFindKey(gKey), func() ([]int32, error) {
			return concomp.UnionFind(g), nil
		})
	}
	// trailer appends the component count and the verification line
	// every machine shares.
	trailer := func(buf *bytes.Buffer, labels []int32) error {
		fmt.Fprintf(buf, "components: %d\n", graph.CountComponents(labels))
		if !w.Verify {
			return nil
		}
		want, err := reference()
		if err != nil {
			return err
		}
		if !graph.SameComponents(labels, want) {
			return fmt.Errorf("VERIFICATION FAILED: partition disagrees with union-find")
		}
		fmt.Fprintln(buf, "components verified ok")
		return nil
	}

	switch w.Machine {
	case "mta", "mta-star", "smp":
		inputs := []string{gKey}
		if w.Verify {
			// Resolve the union-find reference before consulting the
			// result cache, so a warm run's manifest still records the
			// complete input set.
			if _, err := reference(); err != nil {
				return err
			}
			inputs = append(inputs, sweep.UnionFindKey(gKey))
		}
		return rc.simulate(
			fmt.Sprintf("wl/concomp/%s/p=%d/verify=%t", w.Machine, w.Procs, w.Verify),
			inputs, func(buf *bytes.Buffer, rec *trace.Recorder) error {
				buf.WriteString(header)
				var labels []int32
				switch w.Machine {
				case "smp":
					m := rc.newSMP(rec)
					labels = concomp.LabelSMP(g, m)
					writeGraphSMP(buf, m)
				case "mta":
					m := rc.newMTA(rec)
					labels = concomp.LabelMTA(g, m, sim.SchedDynamic)
					writeGraphMTA(buf, w.Machine, m)
				default: // mta-star
					m := rc.newMTA(rec)
					labels = concomp.LabelMTAStarCheck(g, m, sim.SchedDynamic)
					writeGraphMTA(buf, w.Machine, m)
				}
				return trailer(buf, labels)
			})
	}

	var buf bytes.Buffer
	buf.WriteString(header)
	var labels []int32
	var name string
	start := time.Now()
	switch w.Machine {
	case "native":
		labels, name = concomp.SV(g, w.Procs), fmt.Sprintf("native(goroutines,SV) p=%d", w.Procs)
	case "as":
		labels, name = concomp.AwerbuchShiloach(g, w.Procs), fmt.Sprintf("native(Awerbuch-Shiloach) p=%d", w.Procs)
	case "randmate":
		labels, name = concomp.RandomMate(g, sp.Run.Seed), "random-mating"
	case "hybrid":
		labels, name = concomp.Hybrid(g, sp.Run.Seed), "hybrid(random-mate+graft)"
	case "seq":
		labels, name = concomp.UnionFind(g), "sequential(union-find)"
	default: // bfs
		labels, name = concomp.BFS(g), "sequential(BFS)"
	}
	fmt.Fprintf(&buf, "machine=%s wall=%.6f s\n", name, time.Since(start).Seconds())
	if err := trailer(&buf, labels); err != nil {
		return err
	}
	return rc.finish(buf.Bytes(), false)
}
