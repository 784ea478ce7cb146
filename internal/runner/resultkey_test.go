package runner

import (
	"context"
	"io"
	"testing"

	"pargraph/internal/cmdutil"
	"pargraph/internal/spec"
)

// TestWorkloadResultKeys pins the result-cache key of every simulated
// single-run cell. A key is the cell's identity in a cache directory
// that outlives the binary: if refactoring the workload bodies changed
// one, every warm cache would silently go cold. Each cell runs cold and
// then warm against one cache directory; both runs must record exactly
// the pinned key, computed the first time and replayed the second.
func TestWorkloadResultKeys(t *testing.T) {
	t.Setenv(cmdutil.CacheEnv, "")
	cases := []struct {
		command, machine string
		trace            bool
		want             string
	}{
		{spec.CmdListrank, "mta", false,
			"result/c1/60:wl/listrank/mta/p=2/sched=dynamic/npw=10/verify=true|notrace|18:list/1024/Random/1"},
		{spec.CmdListrank, "smp", true,
			"result/c1/55:wl/listrank/smp/p=2/sublists=8/seed=1/verify=true|trace|18:list/1024/Random/1"},
		{spec.CmdConcomp, "mta", false,
			"result/c1/38:wl/concomp/mta/p=2/verify=true|notrace|15:gnm/1024/4096/1|25:gnm/1024/4096/1/unionfind"},
		{spec.CmdConcomp, "mta-star", false,
			"result/c1/43:wl/concomp/mta-star/p=2/verify=true|notrace|15:gnm/1024/4096/1|25:gnm/1024/4096/1/unionfind"},
		{spec.CmdConcomp, "smp", true,
			"result/c1/36:wl/concomp/smp/p=2/verify=true|trace|15:gnm/1024/4096/1|25:gnm/1024/4096/1/unionfind"},
		{spec.CmdColoring, "mta", false,
			"result/c1/53:wl/coloring/mta/p=2/sched=dynamic/verify=true|notrace|14:rmat/10/4096/1|22:rmat/10/4096/1/specref"},
		{spec.CmdColoring, "smp", true,
			"result/c1/51:wl/coloring/smp/p=2/sched=dynamic/verify=true|trace|14:rmat/10/4096/1|22:rmat/10/4096/1/specref"},
	}
	for _, c := range cases {
		t.Run(c.command+"/"+c.machine, func(t *testing.T) {
			sp := spec.Default(c.command)
			sp.Run.CacheDir = t.TempDir()
			w := &sp.Workload
			w.Machine, w.Procs, w.N, w.M = c.machine, 2, 1<<10, 4<<10
			if c.trace {
				sp.Output.Trace = "trace.json"
			}
			if err := sp.Validate(); err != nil {
				t.Fatal(err)
			}
			for _, source := range []string{"computed", "cache"} {
				res, err := RunContext(context.Background(), sp, Options{Stdout: io.Discard, Stderr: io.Discard})
				if err != nil {
					t.Fatal(err)
				}
				rs := res.Manifest.Results
				if len(rs) != 1 {
					t.Fatalf("%s run recorded %d result keys, want 1: %+v", source, len(rs), rs)
				}
				if rs[0].Key != c.want {
					t.Errorf("%s run result key\n got %q\nwant %q", source, rs[0].Key, c.want)
				}
				if rs[0].Source != source {
					t.Errorf("result source = %q, want %q", rs[0].Source, source)
				}
			}
		})
	}
}
