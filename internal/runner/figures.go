package runner

import (
	"bytes"
	"fmt"
	"io"

	"pargraph/internal/harness"
	"pargraph/internal/spec"
	"pargraph/internal/trace"
)

// runFigures is cmd/figures' execution body: regenerate the selected
// figures, tables, and experiments at the spec's scale and render them.
// Sharded runs emit a partial envelope on stdout instead; Merge renders
// the merged partials through the same writeFigures.
func (rc *runCtx) runFigures() error {
	sp := rc.sp
	var rec *trace.Recorder
	if (sp.Output.Trace != "" || sp.Output.Attr != "") && !rc.env.Shard.Active() {
		rec = &trace.Recorder{}
		rc.env.TraceSink = rec
	}
	rep, err := rc.computeFigures()
	if err != nil {
		return err
	}
	if rc.env.Shard.Active() {
		return rc.writePartial(&harness.Partial{Report: rep})
	}
	return rc.writeFigures(rep, rec)
}

// figureExpOrder is the order -all runs (and renders) the extra
// experiments in.
var figureExpOrder = []string{"saturation", "streams", "sched", "hashing", "sublists", "shortcut", "cache", "assoc", "reduction", "treeeval", "coloring", "colorsched"}

// figureExps lists the extra experiments the spec selects, in run order.
func figureExps(f *spec.Figures) []string {
	if f.All {
		return figureExpOrder
	}
	if f.Exp != "" {
		return []string{f.Exp}
	}
	return nil
}

// computeFigures runs every sweep the spec selects into a report, in a
// fixed order (the order trace events and shard cell traces follow).
// Under an active shard the report is zero-slotted outside the shard's
// cells. The §5 summary is not derived here; writeFigures derives it
// from the complete report.
func (rc *runCtx) computeFigures() (*harness.Report, error) {
	f := &rc.sp.Figures
	scale, err := harness.ParseScale(rc.sp.Run.Scale)
	if err != nil {
		return nil, err
	}

	// Scale defaults, with the spec's sweep-axis overrides applied.
	fig1P := harness.DefaultFig1(scale)
	fig2P := harness.DefaultFig2(scale)
	table1P := harness.DefaultTable1(scale)
	coloringP := harness.DefaultColoring(scale)
	if len(f.Procs) > 0 {
		fig1P.Procs = f.Procs
		fig2P.Procs = f.Procs
		table1P.Procs = f.Procs
		coloringP.Procs = f.Procs
	}
	if len(f.Sizes) > 0 {
		fig1P.Sizes = f.Sizes
	}
	if len(f.EdgeFactors) > 0 {
		fig2P.EdgeFactors = f.EdgeFactors
	}

	rep := &harness.Report{}
	runFig1 := func() (err error) {
		if rep.Fig1 == nil {
			rep.Fig1, err = rc.env.RunFig1(fig1P)
		}
		return err
	}
	runFig2 := func() (err error) {
		if rep.Fig2 == nil {
			rep.Fig2, err = rc.env.RunFig2(fig2P)
		}
		return err
	}

	if f.All || f.Fig == 1 {
		if err := runFig1(); err != nil {
			return nil, err
		}
	}
	if f.All || f.Fig == 2 {
		if err := runFig2(); err != nil {
			return nil, err
		}
	}
	if f.All || f.Table == 1 {
		rep.Table1 = rc.env.RunTable1(table1P)
	}
	if f.All || f.Summary {
		// The headline ratios derive from every fig1/fig2 cell.
		if err := runFig1(); err != nil {
			return nil, err
		}
		if err := runFig2(); err != nil {
			return nil, err
		}
	}

	addAbl := func(a *harness.AblationResult) error {
		rep.Ablations = append(rep.Ablations, a)
		return nil
	}
	exps := map[string]func() error{
		"saturation": func() error {
			rep.Saturation = rc.env.RunSaturation([]int{1, 2, 4, 8}, []int{100, 1000, 10000}, 7)
			return nil
		},
		"streams": func() error {
			rep.Streams = rc.env.RunStreams(sizeFor(scale, 1<<16, 1<<19, 1<<21), 1,
				[]int{1, 2, 4, 8, 16, 40, 80, 128}, 7)
			return nil
		},
		"sched": func() error {
			return addAbl(rc.env.RunAblScheduling(sizeFor(scale, 1<<16, 1<<19, 1<<21), 8, 7))
		},
		"hashing": func() error {
			return addAbl(rc.env.RunAblHashing(sizeFor(scale, 1<<16, 1<<19, 1<<21), 8))
		},
		"sublists": func() error {
			return addAbl(rc.env.RunAblSublists(sizeFor(scale, 1<<16, 1<<19, 1<<21), 8, []int{1, 2, 4, 8, 16, 64}, 7))
		},
		"shortcut": func() error {
			return addAbl(rc.env.RunAblShortcut(sizeFor(scale, 1<<11, 1<<14, 1<<17), 8, 4, 7))
		},
		"cache": func() error {
			return addAbl(rc.env.RunAblCache(sizeFor(scale, 1<<17, 1<<19, 1<<21), 1, []int{1, 2, 4, 8, 16}, 7))
		},
		"assoc": func() error {
			return addAbl(rc.env.RunAblAssociativity(sizeFor(scale, 1<<16, 1<<19, 1<<21), 8, []int{1, 2, 4}, 7))
		},
		"reduction": func() error {
			return addAbl(rc.env.RunAblReduction(sizeFor(scale, 1<<16, 1<<19, 1<<21), 8))
		},
		"treeeval": func() (err error) {
			sz := sizeFor(scale, 1<<13, 1<<16, 1<<18)
			rep.TreeEval, err = rc.env.RunTreeEval([]int{sz / 4, sz / 2, sz}, 8, 7)
			return err
		},
		"coloring": func() (err error) {
			rep.Coloring, err = rc.env.RunColoring(coloringP)
			return err
		},
		"colorsched": func() error {
			return addAbl(rc.env.RunAblColoringSched(sizeFor(scale, 10, 13, 16), 8, 8, 7))
		},
	}
	for _, name := range figureExps(f) {
		if err := exps[name](); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// writeFigures derives the §5 summary when the spec asks for it, then
// renders a complete report — from one process or merged from shards —
// in the spec's format: the report (file or stdout), then the trace and
// attribution files rendered from rec, the whole run's event stream;
// the manifest records them in that same order.
func (rc *runCtx) writeFigures(rep *harness.Report, rec *trace.Recorder) error {
	sp, f := rc.sp, &rc.sp.Figures
	if f.All || f.Summary {
		sum, err := harness.Summarize(rep.Fig1, rep.Fig2)
		if err != nil {
			return err
		}
		rep.Summary = sum
	}

	var buf bytes.Buffer
	switch f.Format {
	case "json":
		if err := rep.WriteJSON(&buf); err != nil {
			return err
		}
	case "csv":
		for _, r := range selectedTables(f, rep) {
			if err := r.WriteCSV(&buf); err != nil {
				return err
			}
		}
	default: // text
		for _, r := range selectedTables(f, rep) {
			r.WriteText(&buf)
		}
		if rep.Summary != nil {
			rep.Summary.WriteText(&buf)
		}
		abl := rep.Ablations
		for _, name := range figureExps(f) {
			switch name {
			case "saturation":
				rep.Saturation.WriteText(&buf)
			case "streams":
				rep.Streams.WriteText(&buf)
			case "treeeval":
				rep.TreeEval.WriteText(&buf)
			case "coloring":
				rep.Coloring.WriteText(&buf)
			default: // ablations, in run order
				abl[0].WriteText(&buf)
				abl = abl[1:]
			}
		}
	}

	if sp.Output.Report != "" {
		if err := rc.emit("report", sp.Output.Report, buf.Bytes(), ""); err != nil {
			return err
		}
	} else {
		if _, err := rc.o.Stdout.Write(buf.Bytes()); err != nil {
			return err
		}
		rc.record("report", "", buf.Bytes())
	}

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

	if f.Format == "text" {
		fmt.Fprintln(rc.o.Stdout, "done.")
	}
	return nil
}

// figureTable is a paper figure or table: renderable as text or CSV.
type figureTable interface {
	WriteText(io.Writer)
	WriteCSV(io.Writer) error
}

// selectedTables returns the figures and tables the spec selects, in
// render order.
func selectedTables(f *spec.Figures, rep *harness.Report) []figureTable {
	var ts []figureTable
	if f.All || f.Fig == 1 {
		ts = append(ts, rep.Fig1)
	}
	if f.All || f.Fig == 2 {
		ts = append(ts, rep.Fig2)
	}
	if f.All || f.Table == 1 {
		ts = append(ts, rep.Table1)
	}
	return ts
}

func sizeFor(s harness.Scale, small, medium, paper int) int {
	switch s {
	case harness.Small:
		return small
	case harness.Medium:
		return medium
	default:
		return paper
	}
}
