package harness

// Cross-process sharding guarantees: a full shard set's merged
// artifacts — report JSON, CSV, and the reassembled trace — are
// byte-identical to the unsharded run's, for any shard count; partials
// survive their JSON round trip (the process boundary); and a
// persistent input cache lets a warm run skip generation entirely
// without changing a byte of output.

import (
	"bytes"
	"strings"
	"testing"

	"pargraph/internal/diskcache"
	"pargraph/internal/list"
	"pargraph/internal/listrank"
	"pargraph/internal/sweep"
	"pargraph/internal/trace"
)

// shardEnv is the one-run Env every test here executes under: the
// sequential defaults plus the given shard, trace log and input cache.
func shardEnv(sh sweep.Shard, log *PartialTraceLog, store *diskcache.Store) *Env {
	return &Env{Jobs: 1, HostWorkers: 1, Shard: sh, PartialTraces: log, CacheStore: store}
}

// Small parameter sets so each shard run stays fast; every experiment
// family with its own merge shape is represented.
func shardFig1Params() Fig1Params {
	return Fig1Params{
		Sizes: []int{1 << 10, 1 << 11}, Procs: []int{1, 2},
		Layouts:      []list.Layout{list.Ordered, list.Random},
		NodesPerWalk: listrank.DefaultNodesPerWalk, Sublists: 8,
		Seed: 0x11, Verify: true,
	}
}

func shardFig2Params() Fig2Params {
	return Fig2Params{N: 1 << 10, EdgeFactors: []int{4, 8}, Procs: []int{1, 2}, Seed: 0x22, Verify: true}
}

func shardTable1Params() Table1Params {
	return Table1Params{
		ListN: 1 << 12, GraphN: 1 << 10, GraphM: 20 << 10,
		Procs: []int{1, 2}, NodesPerWalk: listrank.DefaultNodesPerWalk, Seed: 0x33,
	}
}

func shardColoringParams() ColoringParams {
	return ColoringParams{
		Procs: []int{1, 2}, Seed: 0x44,
		RMATScale: 9, RMATEdges: 8, MeshDim: 24, TorusDim: 24, Verify: true,
	}
}

// runSuite executes the four-experiment suite into a report. The same
// function serves the unsharded baseline and every shard, so any
// divergence is the sharding's fault, not the parameters'.
func runSuite(t *testing.T, env *Env) *Report {
	t.Helper()
	rep := &Report{}
	f1, err := env.RunFig1(shardFig1Params())
	if err != nil {
		t.Fatal(err)
	}
	f2, err := env.RunFig2(shardFig2Params())
	if err != nil {
		t.Fatal(err)
	}
	rep.Fig1, rep.Fig2 = f1, f2
	rep.Table1 = env.RunTable1(shardTable1Params())
	col, err := env.RunColoring(shardColoringParams())
	if err != nil {
		t.Fatal(err)
	}
	rep.Coloring = col
	return rep
}

// roundTrip pushes a partial through its JSON encoding, as the process
// boundary does, so float fidelity and field tags are under test too.
func roundTrip(t *testing.T, p *Partial) *Partial {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	rt, err := ReadPartial(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func reportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func chromeTrace(t *testing.T, rec *trace.Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardMergeByteIdentical is the sharding contract end to end: for
// shard counts 2 and 4, the merged report JSON, figure CSV, and
// reassembled Chrome trace equal the unsharded run's byte for byte.
func TestShardMergeByteIdentical(t *testing.T) {
	// Unsharded baseline, tracing into a sink as cmd/figures -trace does.
	baseRec := &trace.Recorder{}
	baseEnv := shardEnv(sweep.Shard{}, nil, nil)
	baseEnv.TraceSink = baseRec
	baseline := runSuite(t, baseEnv)
	wantJSON := reportJSON(t, baseline)
	wantTrace := chromeTrace(t, baseRec)
	var wantCSV bytes.Buffer
	if err := baseline.Fig1.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}

	for _, count := range []int{2, 4} {
		var parts []*Partial
		for idx := 0; idx < count; idx++ {
			sh := sweep.Shard{Index: idx, Count: count}
			tlog := &PartialTraceLog{}
			rep := runSuite(t, shardEnv(sh, tlog, nil))
			parts = append(parts, roundTrip(t, &Partial{
				Schema: PartialSchema, Shard: sh,
				Report: rep, Trace: tlog.Take(),
			}))
		}
		m, err := MergePartials(parts)
		if err != nil {
			t.Fatalf("count=%d: %v", count, err)
		}
		if got := reportJSON(t, m.Report); !bytes.Equal(got, wantJSON) {
			t.Fatalf("count=%d: merged report JSON differs from unsharded (%d vs %d bytes)", count, len(got), len(wantJSON))
		}
		var gotCSV bytes.Buffer
		if err := m.Report.Fig1.WriteCSV(&gotCSV); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
			t.Fatalf("count=%d: merged fig1 CSV differs from unsharded", count)
		}
		if len(m.Trace.Events) == 0 {
			t.Fatalf("count=%d: merged run lost its trace", count)
		}
		if got := chromeTrace(t, m.Trace); !bytes.Equal(got, wantTrace) {
			t.Fatalf("count=%d: merged Chrome trace differs from unsharded (%d vs %d bytes)", count, len(got), len(wantTrace))
		}
	}
}

// TestShardProfileMerge: a profile run split across two shard processes
// reassembles into the unsharded recorder and run table.
func TestShardProfileMerge(t *testing.T) {
	params := ProfileParams{Kernel: "fig1", Machine: "both", N: 1 << 10, Procs: 2, Layout: list.Random, Seed: 0x33}

	base, err := shardEnv(sweep.Shard{}, nil, nil).RunProfile(params)
	if err != nil {
		t.Fatal(err)
	}

	var parts []*Partial
	for idx := 0; idx < 2; idx++ {
		sh := sweep.Shard{Index: idx, Count: 2}
		tlog := &PartialTraceLog{}
		res, err := shardEnv(sh, tlog, nil).RunProfile(params)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, roundTrip(t, &Partial{
			Schema: PartialSchema, Shard: sh,
			Profile: &ProfilePartial{Params: res.Params, Runs: res.Runs},
			Trace:   tlog.Take(),
		}))
	}
	m, err := MergePartials(parts)
	if err != nil {
		t.Fatal(err)
	}
	if m.Profile == nil {
		t.Fatal("merged result has no profile")
	}
	if len(m.Profile.Runs) != len(base.Runs) {
		t.Fatalf("merged %d runs, want %d", len(m.Profile.Runs), len(base.Runs))
	}
	for i, run := range m.Profile.Runs {
		if run != base.Runs[i] {
			t.Fatalf("run %d = %+v, want %+v", i, run, base.Runs[i])
		}
	}
	var wantAttr, gotAttr bytes.Buffer
	base.Recorder.WriteAttribution(&wantAttr)
	m.Profile.Recorder.WriteAttribution(&gotAttr)
	if !bytes.Equal(gotAttr.Bytes(), wantAttr.Bytes()) {
		t.Fatal("merged attribution differs from unsharded")
	}
	if got, want := chromeTrace(t, m.Profile.Recorder), chromeTrace(t, base.Recorder); !bytes.Equal(got, want) {
		t.Fatal("merged profile trace differs from unsharded")
	}
}

// TestWarmCacheSkipsGeneration: with a persistent store attached, a
// second (fresh-process-equivalent) run reads every input back instead
// of regenerating — zero puts, plenty of hits — and emits exactly the
// same report.
func TestWarmCacheSkipsGeneration(t *testing.T) {
	dir := t.TempDir()
	runFig2 := func(store *diskcache.Store) []byte {
		res, err := shardEnv(sweep.Shard{}, nil, store).RunFig2(shardFig2Params())
		if err != nil {
			t.Fatal(err)
		}
		return reportJSON(t, &Report{Fig2: res})
	}

	cold, err := diskcache.Open(dir, InputSchema)
	if err != nil {
		t.Fatal(err)
	}
	coldJSON := runFig2(cold)
	if st := cold.Stats(); st.Puts == 0 {
		t.Fatalf("cold run persisted nothing: %+v", st)
	}

	warm, err := diskcache.Open(dir, InputSchema)
	if err != nil {
		t.Fatal(err)
	}
	warmJSON := runFig2(warm)
	st := warm.Stats()
	if st.Puts != 0 {
		t.Fatalf("warm run regenerated %d inputs: %+v", st.Puts, st)
	}
	if st.Hits == 0 {
		t.Fatalf("warm run never hit the store: %+v", st)
	}
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Fatal("warm-cache report differs from cold")
	}
}

// TestMergeRejectsBadSets: incomplete, duplicated, or disagreeing
// shard sets fail loudly instead of merging silently.
func TestMergeRejectsBadSets(t *testing.T) {
	mk := func(idx, count int) *Partial {
		return &Partial{Schema: PartialSchema, Shard: sweep.Shard{Index: idx, Count: count}, Report: &Report{}}
	}
	if _, err := MergePartials(nil); err == nil {
		t.Fatal("empty set merged")
	}
	if _, err := MergePartials([]*Partial{mk(0, 2)}); err == nil {
		t.Fatal("incomplete set merged")
	}
	if _, err := MergePartials([]*Partial{mk(0, 2), mk(0, 2)}); err == nil {
		t.Fatal("duplicate shard merged")
	}
	if _, err := MergePartials([]*Partial{mk(0, 2), mk(1, 3)}); err == nil {
		t.Fatal("mixed counts merged")
	}

	// Two shards that disagree on a non-zero slot: a loud conflict.
	a, b := mk(0, 2), mk(1, 2)
	a.Report.Fig2 = &Fig2Result{N: 1024}
	b.Report.Fig2 = &Fig2Result{N: 2048}
	_, err := MergePartials([]*Partial{a, b})
	if err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Fatalf("conflicting shards merged: %v", err)
	}
}

// TestReadPartialRejectsWrongSchema: envelopes from an incompatible
// build are refused up front.
func TestReadPartialRejectsWrongSchema(t *testing.T) {
	if _, err := ReadPartial(strings.NewReader(`{"schema":"pargraph-partial-v0","shard":{"index":0,"count":2}}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}
	if _, err := ReadPartial(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}
