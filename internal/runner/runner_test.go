package runner

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"pargraph/internal/cmdutil"
	"pargraph/internal/harness"
	"pargraph/internal/listrank"
	"pargraph/internal/spec"
)

// testSpec is the tiny figures sweep the golden-manifest tests run: two
// machines, two processor counts, two sizes — enough cells for sharding
// and job scheduling to matter, small enough to run many times.
const testSpec = "[run]\ncommand = \"figures\"\n[figures]\nfig = 1\nformat = \"json\"\nprocs = [1, 2]\nsizes = [256, 512]\n"

// loadTestSpec parses testSpec fresh (Validate mutates the spec, and
// runs must not share one) and points its manifest at dir.
func loadTestSpec(t *testing.T, dir, name string) *spec.Spec {
	t.Helper()
	sp, err := spec.Parse([]byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	sp.Output.Manifest = filepath.Join(dir, name)
	return sp
}

// TestManifestInvariantToExecutionKnobs: the manifest must be
// byte-identical however the run is scheduled — that is the whole point
// of excluding workers and jobs from the canonical spec, and it only
// holds if the artifacts themselves are deterministic under
// concurrency.
func TestManifestInvariantToExecutionKnobs(t *testing.T) {
	t.Setenv(cmdutil.CacheEnv, "")
	dir := t.TempDir()
	var want []byte
	for _, cfg := range []struct{ jobs, workers int }{
		{1, 1}, {2, 1}, {8, 1}, {1, 4}, {2, 4}, {8, 4},
	} {
		name := fmt.Sprintf("j%dw%d.json", cfg.jobs, cfg.workers)
		sp := loadTestSpec(t, dir, name)
		sp.Run.Jobs = cfg.jobs
		sp.Run.Workers = cfg.workers
		if err := Run(sp, Options{Stdout: io.Discard, Stderr: io.Discard}); err != nil {
			t.Fatalf("jobs=%d workers=%d: %v", cfg.jobs, cfg.workers, err)
		}
		got, err := os.ReadFile(sp.Output.Manifest)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("jobs=%d workers=%d produced a different manifest:\n%s\nvs baseline:\n%s",
				cfg.jobs, cfg.workers, got, want)
		}
	}
}

// TestMergedShardManifestMatchesUnsharded: running the spec as N shard
// processes and merging their embedded manifests must reproduce the
// unsharded manifest byte for byte, for several N.
func TestMergedShardManifestMatchesUnsharded(t *testing.T) {
	t.Setenv(cmdutil.CacheEnv, "")
	dir := t.TempDir()

	un := loadTestSpec(t, dir, "unsharded.json")
	if err := Run(un, Options{Stdout: io.Discard, Stderr: io.Discard}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(un.Output.Manifest)
	if err != nil {
		t.Fatal(err)
	}

	for _, count := range []int{2, 4} {
		parts := make([]*harness.Partial, 0, count)
		for i := 0; i < count; i++ {
			sp := loadTestSpec(t, dir, fmt.Sprintf("shard%d-%d.json", i, count))
			sp.Run.Shard = fmt.Sprintf("%d/%d", i, count)
			var out bytes.Buffer
			if err := Run(sp, Options{Stdout: &out, Stderr: io.Discard}); err != nil {
				t.Fatalf("shard %d/%d: %v", i, count, err)
			}
			p, err := harness.ReadPartial(&out)
			if err != nil {
				t.Fatalf("shard %d/%d: %v", i, count, err)
			}
			parts = append(parts, p)
		}
		merged := filepath.Join(dir, fmt.Sprintf("merged-%d.json", count))
		if err := Merge(parts, merged, Options{Stdout: io.Discard, Stderr: io.Discard}); err != nil {
			t.Fatalf("merging %d shards: %v", count, err)
		}
		got, err := os.ReadFile(merged)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%d-shard merged manifest differs from unsharded:\n%s\nvs\n%s", count, got, want)
		}
	}
}

// TestSpecDefaultNodesPerWalk pins the spec layer's copy of the
// listrank default against the kernel package's constant, since the
// spec package deliberately does not import the kernels.
func TestSpecDefaultNodesPerWalk(t *testing.T) {
	if got := spec.Default(spec.CmdListrank).Workload.NodesPerWalk; got != listrank.DefaultNodesPerWalk {
		t.Errorf("spec default nodes_per_walk = %d, listrank.DefaultNodesPerWalk = %d", got, listrank.DefaultNodesPerWalk)
	}
}

// TestRegionTraceRejectsManifest: listrank -trace changes stdout per
// run, so combining it with a manifest must fail up front.
func TestRegionTraceRejectsManifest(t *testing.T) {
	sp := spec.Default(spec.CmdListrank)
	sp.Workload.N = 64
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	sp.Output.Manifest = filepath.Join(t.TempDir(), "m.json")
	err := Run(sp, Options{Stdout: io.Discard, Stderr: io.Discard, RegionTrace: true})
	if err == nil {
		t.Fatal("RegionTrace with a manifest did not error")
	}
}
