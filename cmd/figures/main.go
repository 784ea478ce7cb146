// Command figures regenerates every table and figure of the paper's
// evaluation section, plus the ablations listed in DESIGN.md.
//
// Usage:
//
//	figures -all                 # everything at the default scale
//	figures -fig 1               # Fig. 1 (list ranking, both machines)
//	figures -fig 2               # Fig. 2 (connected components)
//	figures -table 1             # Table 1 (MTA utilization)
//	figures -summary             # §5 headline ratios (E4)
//	figures -exp saturation      # §3 saturation claim (E5)
//	figures -exp streams         # §2.2 streams claim (E6)
//	figures -exp treeeval        # future work: tree contraction (E7)
//	figures -exp coloring        # speculative coloring on both machines (E8)
//	figures -exp colorsched      # A8: coloring loop scheduling ablation
//	figures -exp sched|hashing|sublists|shortcut|cache|assoc|reduction
//	figures -scale small|medium|paper
//	figures -all -json           # machine-readable output
//	figures -fig 1 -csv          # long-format CSV for plotting
//	figures -fig 1 -trace t.json # Chrome trace of every simulated run
//	figures -fig 2 -attr a.csv   # per-region cycle attribution as CSV
//
// The whole invocation can instead be described declaratively
// (internal/spec) and stamped with a reproducibility manifest
// (internal/manifest); explicit flags override the spec's fields:
//
//	figures -spec specs/e1_fig1.toml
//	figures -spec specs/e1_fig1.toml -emit-manifest fig1.manifest.json
//	reproduce fig1.manifest.json
//
// Sweeps can be sharded across processes and their generated inputs
// persisted in a content-addressed cache (see cmd/shardmerge and
// scripts/shard_run.sh). Each shard prints a partial envelope; the merge
// renders whatever the shards' flags name, in any format:
//
//	figures -fig 1 -csv -shard 0/4 -cache-dir /tmp/pgc > part0.json
//	figures -fig 1 -csv -shard 1/4 -cache-dir /tmp/pgc > part1.json
//	...
//	shardmerge part*.json   # byte-identical to the unsharded -fig 1 -csv
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"

	"pargraph/internal/cmdutil"
	"pargraph/internal/runner"
	"pargraph/internal/spec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	var (
		specPath = flag.String("spec", "", "load the experiment from this spec file (TOML); explicit flags override its fields")
		fig      = flag.Int("fig", 0, "figure to regenerate (1 or 2)")
		table    = flag.Int("table", 0, "table to regenerate (1)")
		summary  = flag.Bool("summary", false, "print the §5 headline ratios")
		exp      = flag.String("exp", "", "extra experiment: saturation, streams, sched, hashing, sublists, shortcut, cache, assoc, reduction, treeeval, coloring, colorsched")
		all      = flag.Bool("all", false, "run everything")
		scaleS   = flag.String("scale", "small", "problem scale: small, medium, or paper")
		jsonFlag = flag.Bool("json", false, "emit results as JSON instead of tables")
		csvFlag  = flag.Bool("csv", false, "emit figure/table results as CSV instead of tables")
		workers  = flag.Int("workers", 1, "host goroutines replaying each simulated region (0 = auto: every core, serial for small regions); results are identical for any value")
		jobs     = flag.Int("jobs", 0, "experiment cells run concurrently per sweep (0 = NumCPU); results are identical for any value")
		traceOut = flag.String("trace", "", "record every simulated machine's attribution trace and write Chrome trace JSON to this file")
		attrOut  = flag.String("attr", "", "with tracing, also write the per-region attribution as CSV to this file")
		shardS   = flag.String("shard", "", "run only the experiment cells of shard i/N (e.g. 0/4) and emit a partial-result envelope for cmd/shardmerge")
		cacheDir = flag.String("cache-dir", "", "persist generated inputs and whole sweep-cell results in a content-addressed cache at this directory (default $"+cmdutil.CacheEnv+"; empty = off)")
		noResult = flag.Bool("no-result-cache", false, "with a cache attached, keep the input cache but disable whole-result memoization")
		cacheSt  = flag.Bool("cache-stats", false, "print input- and result-cache hit/miss/byte counters to stderr after the run")
		cacheMax = flag.Int64("cache-max-bytes", 0, "bound the cache directory's size; least-recently-used entries are pruned on overflow (0 = unbounded)")
		manifest = flag.String("emit-manifest", "", "write a reproducibility manifest (spec hash, input keys, artifact hashes) to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a Go CPU profile of the whole run to this file")
		memProf  = flag.String("memprofile", "", "write a Go heap profile at exit to this file")
	)
	flag.Parse()

	sp, err := runner.LoadSpec(*specPath, spec.CmdFigures)
	if err != nil {
		log.Fatal(err)
	}
	jsonSet, csvSet := false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "fig":
			sp.Figures.Fig = *fig
		case "table":
			sp.Figures.Table = *table
		case "summary":
			sp.Figures.Summary = *summary
		case "exp":
			sp.Figures.Exp = *exp
		case "all":
			sp.Figures.All = *all
		case "scale":
			sp.Run.Scale = *scaleS
		case "json":
			jsonSet = *jsonFlag
			if jsonSet {
				sp.Figures.Format = "json"
			}
		case "csv":
			csvSet = *csvFlag
			if csvSet {
				sp.Figures.Format = "csv"
			}
		case "workers":
			sp.Run.Workers = *workers
		case "jobs":
			sp.Run.Jobs = *jobs
		case "trace":
			sp.Output.Trace = *traceOut
		case "attr":
			sp.Output.Attr = *attrOut
		case "shard":
			sp.Run.Shard = *shardS
		case "cache-dir":
			sp.Run.CacheDir = *cacheDir
		case "emit-manifest":
			sp.Output.Manifest = *manifest
		}
	})
	if jsonSet && csvSet {
		log.Fatal("choose one of -json and -csv")
	}
	if err := sp.Validate(); err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	stopCPU, err := cmdutil.StartCPUProfile(*cpuProf)
	if err != nil {
		log.Fatal(err)
	}
	defer stopCPU()
	defer func() {
		if err := cmdutil.WriteHeapProfile(*memProf); err != nil {
			log.Fatal(err)
		}
	}()

	opts := runner.Options{
		Interrupt:     ctx,
		NoResultCache: *noResult,
		CacheStats:    *cacheSt,
		CacheMaxBytes: *cacheMax,
	}
	if err := runner.Run(sp, opts); err != nil {
		log.Fatal(err)
	}
}
