// Command profile runs one kernel under cycle-attribution tracing and
// renders where the machine's capacity went: a per-region attribution
// table on stdout, optionally a Chrome trace_event JSON file (load it in
// about://tracing or https://ui.perfetto.dev) and a bucketed utilization
// timeline.
//
// Usage:
//
//	profile -kernel fig1 -machine mta -trace out.json
//	profile -kernel fig2 -machine both -attr csv
//	profile -kernel prefix -layout ordered -timeline 20000
//	profile -kernel treecon -n 4096 -sample 500
//	profile -kernel coloring -machine both -attr table
//	profile -spec specs/e2_profile.toml -emit-manifest prof.manifest.json
//
// All output is bit-identical for any -workers value: events are
// emitted at region commit, after the deterministic replay merge.
//
// With -machine both, the two machines can run as separate shard
// processes whose partials cmd/shardmerge reassembles into the exact
// unsharded output. The shards take the output flags (-attr, -timeline,
// -trace) and the merge renders what they name:
//
//	profile -kernel fig1 -attr csv -trace t.json -shard 0/2 > part0.json
//	profile -kernel fig1 -attr csv -trace t.json -shard 1/2 > part1.json
//	shardmerge part0.json part1.json   # stdout, and t.json
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
	log.SetPrefix("profile: ")
	var (
		specPath = flag.String("spec", "", "load the experiment from this spec file (TOML); explicit flags override its fields")
		kernel   = flag.String("kernel", "fig1", "kernel to profile: fig1 (list ranking), fig2 (connected components), prefix, treecon, coloring")
		machine  = flag.String("machine", "both", "machine(s) to run: mta, smp, or both")
		n        = flag.Int("n", 1<<16, "problem size (list nodes / graph vertices / tree leaves)")
		procs    = flag.Int("procs", 8, "simulated processors")
		layoutS  = flag.String("layout", "random", "list layout for fig1/prefix: ordered or random")
		seed     = flag.Uint64("seed", 0x33, "workload seed")
		sample   = flag.Float64("sample", 0, "MTA within-region sampling interval in simulated cycles (0 = off)")
		traceOut = flag.String("trace", "", "write Chrome trace_event JSON to this file")
		attr     = flag.String("attr", "table", "attribution format on stdout: table, csv, json, or none")
		timeline = flag.Float64("timeline", 0, "print a utilization timeline with this bucket width in cycles (0 = off)")
		workers  = flag.Int("workers", 1, "host goroutines replaying each simulated region (0 = auto: every core, serial for small regions); output is identical for any value")
		jobs     = flag.Int("jobs", 0, "experiment cells run concurrently (with -machine both the two machines are separate cells; 0 = NumCPU); output is identical for any value")
		shardS   = flag.String("shard", "", "run only the cells of shard i/N (e.g. 0/2) and emit a partial-result envelope on stdout for cmd/shardmerge")
		cacheDir = flag.String("cache-dir", "", "persist generated inputs and whole sweep-cell results in a content-addressed cache at this directory (default $"+cmdutil.CacheEnv+"; empty = off)")
		noResult = flag.Bool("no-result-cache", false, "with a cache attached, keep the input cache but disable whole-result memoization")
		cacheSt  = flag.Bool("cache-stats", false, "print input- and result-cache hit/miss/byte counters to stderr after the run")
		cacheMax = flag.Int64("cache-max-bytes", 0, "bound the cache directory's size; least-recently-used entries are pruned on overflow (0 = unbounded)")
		manifest = flag.String("emit-manifest", "", "write a reproducibility manifest (spec hash, input keys, artifact hashes) to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a Go CPU profile of the whole run to this file")
		memProf  = flag.String("memprofile", "", "write a Go heap profile at exit to this file")
	)
	flag.Parse()

	sp, err := runner.LoadSpec(*specPath, spec.CmdProfile)
	if err != nil {
		log.Fatal(err)
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "kernel":
			sp.Profile.Kernel = *kernel
		case "machine":
			sp.Profile.Machine = *machine
		case "n":
			sp.Profile.N = *n
		case "procs":
			sp.Profile.Procs = *procs
		case "layout":
			sp.Profile.Layout = *layoutS
		case "seed":
			sp.Run.Seed = *seed
		case "sample":
			sp.Profile.Sample = *sample
		case "trace":
			sp.Output.Trace = *traceOut
		case "attr":
			sp.Profile.Attr = *attr
		case "timeline":
			sp.Profile.Timeline = *timeline
		case "workers":
			sp.Run.Workers = *workers
		case "jobs":
			sp.Run.Jobs = *jobs
		case "shard":
			sp.Run.Shard = *shardS
		case "cache-dir":
			sp.Run.CacheDir = *cacheDir
		case "emit-manifest":
			sp.Output.Manifest = *manifest
		}
	})
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
