package runner

import (
	"bytes"
	"fmt"

	"pargraph/internal/harness"
	"pargraph/internal/list"
)

// runProfile is cmd/profile's execution body: one kernel under
// cycle-attribution tracing, with the attribution (and optionally a
// utilization timeline) on stdout and a Chrome trace as a file
// artifact. Sharded runs (-machine both split across processes) emit a
// partial envelope carrying the event streams instead; Merge renders the
// merged partials through the same writeProfile.
func (rc *runCtx) runProfile() error {
	sp := rc.sp
	p := &sp.Profile

	layout := list.Random
	if p.Layout == "ordered" {
		layout = list.Ordered
	}
	params := harness.ProfileParams{
		Kernel: p.Kernel, Machine: p.Machine,
		N: p.N, Procs: p.Procs, Layout: layout,
		Seed: sp.Run.Seed, SampleCycles: p.Sample,
	}
	res, err := rc.env.RunProfile(params)
	if err != nil {
		return err
	}

	if rc.env.Shard.Active() {
		return rc.writePartial(&harness.Partial{
			Profile: &harness.ProfilePartial{Params: res.Params, Runs: res.Runs},
		})
	}
	return rc.writeProfile(res)
}

// writeProfile renders a complete profile result — from one process or
// merged from shards — the way cmd/profile prints it: run headers, the
// attribution in the spec's format and an optional utilization
// timeline on stdout, then the Chrome trace file the spec names.
func (rc *runCtx) writeProfile(res *harness.ProfileResult) error {
	sp, p := rc.sp, &rc.sp.Profile
	var buf bytes.Buffer
	for _, run := range res.Runs {
		fmt.Fprintf(&buf, "%s %s n=%d p=%d: %.0f cycles (%.6f s), %d trace events\n",
			run.Machine, res.Params.Kernel, res.Params.N, res.Params.Procs, run.Cycles, run.Seconds, run.Events)
	}
	fmt.Fprintln(&buf)

	switch p.Attr {
	case "table":
		res.Recorder.WriteAttribution(&buf)
	case "csv":
		if err := res.Recorder.WriteAttributionCSV(&buf); err != nil {
			return err
		}
	case "json":
		if err := res.Recorder.WriteAttributionJSON(&buf); err != nil {
			return err
		}
	case "none":
	}

	if p.Timeline > 0 {
		res.Recorder.WriteTimeline(&buf, p.Timeline)
	}
	if _, err := rc.o.Stdout.Write(buf.Bytes()); err != nil {
		return err
	}
	rc.record("stdout", "", buf.Bytes())

	if sp.Output.Trace != "" {
		var tb bytes.Buffer
		if err := res.Recorder.WriteChromeTrace(&tb); err != nil {
			return err
		}
		// Status goes to stderr so stdout stays byte-comparable across runs.
		if err := rc.emit("trace", sp.Output.Trace, tb.Bytes(), "wrote Chrome trace to %s (open in about://tracing or ui.perfetto.dev)\n"); err != nil {
			return err
		}
	}
	return nil
}
