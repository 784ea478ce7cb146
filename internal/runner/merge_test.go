package runner

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pargraph/internal/cmdutil"
	"pargraph/internal/harness"
	"pargraph/internal/spec"
)

// Tiny sweeps in the spirit of testSpec: enough cells for every shard
// of a 4-shard run to own some, small enough to run many times.
const (
	mergeFig1    = "[run]\ncommand = \"figures\"\n[figures]\nfig = 1\nprocs = [1, 2]\nsizes = [256, 512]\n"
	mergeSummary = "[run]\ncommand = \"figures\"\n[figures]\nsummary = true\nprocs = [1, 2]\nsizes = [256, 512]\nedge_factors = [4]\n"
	mergeProfile = "[run]\ncommand = \"profile\"\n[profile]\nkernel = \"fig1\"\nmachine = \"both\"\nn = 1024\nprocs = 2\n"
)

// mergeCase is one spec whose merged shards must reproduce its
// unsharded run.
type mergeCase struct {
	name     string
	spec     string   // TOML; [output] file paths are filled in per test
	files    []string // [output] file roles the spec names: trace, attr
	contains string   // a substring stdout must hold ("" = no check)
}

// load parses the case's spec with its output files under dir and the
// given shard string, and validates it.
func (c mergeCase) load(t *testing.T, dir, shard string) *spec.Spec {
	t.Helper()
	sp, err := spec.Parse([]byte(c.spec))
	if err != nil {
		t.Fatal(err)
	}
	for _, role := range c.files {
		path := filepath.Join(dir, role)
		switch role {
		case "trace":
			sp.Output.Trace = path
		case "attr":
			sp.Output.Attr = path
		default:
			t.Fatalf("unknown output role %q", role)
		}
	}
	sp.Run.Shard = shard
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	return sp
}

// runShard runs one shard of a spec and decodes the partial it prints.
func runShard(t *testing.T, sp *spec.Spec) *harness.Partial {
	t.Helper()
	var out bytes.Buffer
	if err := Run(sp, Options{Stdout: &out, Stderr: io.Discard}); err != nil {
		t.Fatalf("shard %s: %v", sp.Run.Shard, err)
	}
	p, err := harness.ReadPartial(&out)
	if err != nil {
		t.Fatalf("shard %s: %v", sp.Run.Shard, err)
	}
	return p
}

// takeFiles reads and removes the files the spec named, so the next
// run starts from an empty directory.
func takeFiles(t *testing.T, dir string, roles []string) map[string][]byte {
	t.Helper()
	got := make(map[string][]byte, len(roles))
	for _, role := range roles {
		path := filepath.Join(dir, role)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got[role] = data
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	return got
}

// TestMergeMatchesUnsharded: every artifact cmd/figures and cmd/profile
// render can be rendered from merged shards. For shard counts 2 and 4,
// the merged stdout, every file the spec names, and the merged manifest
// are byte-identical to the unsharded run's. The shards themselves
// write no artifact files, and the merge derives the §5 summary.
func TestMergeMatchesUnsharded(t *testing.T) {
	t.Setenv(cmdutil.CacheEnv, "")
	cases := []mergeCase{
		{"fig1-json-trace-attr", mergeFig1 + "format = \"json\"\n", []string{"trace", "attr"}, `"fig1"`},
		{"fig1-text", mergeFig1, nil, "done."},
		{"fig1-csv", mergeFig1 + "format = \"csv\"\n", nil, "MTA"},
		{"summary-csv", mergeSummary + "format = \"csv\"\n", nil, ""},
		{"summary-json", mergeSummary + "format = \"json\"\n", nil, `"summary"`},
		{"summary-text", mergeSummary, nil, "paper"},
		{"profile-both-attr-csv-trace", mergeProfile + "attr = \"csv\"\n", []string{"trace"}, "MTA"},
		{"profile-both-attr-table-timeline", mergeProfile + "timeline = 20000\n", nil, "MTA"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			un := c.load(t, dir, "")
			un.Output.Manifest = filepath.Join(dir, "unsharded.manifest.json")
			var wantOut bytes.Buffer
			if err := Run(un, Options{Stdout: &wantOut, Stderr: io.Discard}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(wantOut.Bytes(), []byte(c.contains)) {
				t.Fatalf("unsharded stdout lacks %q:\n%s", c.contains, wantOut.Bytes())
			}
			wantFiles := takeFiles(t, dir, c.files)
			wantManifest, err := os.ReadFile(un.Output.Manifest)
			if err != nil {
				t.Fatal(err)
			}

			for _, count := range []int{2, 4} {
				parts := make([]*harness.Partial, count)
				for i := range parts {
					parts[i] = runShard(t, c.load(t, dir, fmt.Sprintf("%d/%d", i, count)))
				}
				for _, role := range c.files {
					if _, err := os.Stat(filepath.Join(dir, role)); !errors.Is(err, fs.ErrNotExist) {
						t.Fatalf("N=%d: a shard wrote the %s file (stat: %v)", count, role, err)
					}
				}

				manifestPath := filepath.Join(dir, fmt.Sprintf("merged-%d.manifest.json", count))
				var gotOut bytes.Buffer
				if err := Merge(parts, manifestPath, Options{Stdout: &gotOut, Stderr: io.Discard}); err != nil {
					t.Fatalf("N=%d: %v", count, err)
				}
				if !bytes.Equal(gotOut.Bytes(), wantOut.Bytes()) {
					t.Errorf("N=%d: merged stdout differs from unsharded (%d vs %d bytes)", count, gotOut.Len(), wantOut.Len())
				}
				for role, got := range takeFiles(t, dir, c.files) {
					if !bytes.Equal(got, wantFiles[role]) {
						t.Errorf("N=%d: merged %s file differs from unsharded (%d vs %d bytes)", count, role, len(got), len(wantFiles[role]))
					}
				}
				gotManifest, err := os.ReadFile(manifestPath)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotManifest, wantManifest) {
					t.Errorf("N=%d: merged manifest differs from unsharded:\n%s\nvs\n%s", count, gotManifest, wantManifest)
				}
			}
		})
	}

	// Shards of two different specs are one spec's shard set in form
	// only; the embedded manifests expose them.
	t.Run("mixed-specs", func(t *testing.T) {
		dir := t.TempDir()
		fig1 := mergeCase{spec: mergeFig1 + "format = \"json\"\n"}
		summary := mergeCase{spec: mergeFig1 + "format = \"json\"\nsummary = true\n"}
		parts := []*harness.Partial{
			runShard(t, fig1.load(t, dir, "0/2")),
			runShard(t, summary.load(t, dir, "1/2")),
		}
		var out bytes.Buffer
		err := Merge(parts, "", Options{Stdout: &out, Stderr: io.Discard})
		if err == nil || !strings.Contains(err.Error(), "ran spec") {
			t.Fatalf("mixed-spec shards merged: err = %v", err)
		}
		if out.Len() != 0 {
			t.Errorf("a refused merge wrote %d bytes of stdout", out.Len())
		}
	})
}
