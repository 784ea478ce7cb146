package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pargraph/internal/cmdtest"
)

// smallFig1 is a tiny fig1 sweep: enough cells for both shards to own
// some, small enough to run in well under a second.
const smallFig1 = "[run]\ncommand = \"figures\"\n[figures]\nfig = 1\nformat = \"json\"\nprocs = [1, 2]\nsizes = [256, 512]\n"

// build compiles the main package at pkg into dir/name and returns the
// binary's path.
func build(t *testing.T, dir, pkg, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// stdout runs bin and returns its standard output, failing the test on
// a non-zero exit.
func stdout(t *testing.T, bin string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, errOut.Bytes())
	}
	return out.Bytes()
}

// writeFile writes data to dir/name and returns the path.
func writeFile(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// shards runs cmd/figures as a shard set, shard i of len(specs) on
// specs[i], and returns the partial files' paths.
func shards(t *testing.T, figures, dir, prefix string, specs ...string) []string {
	t.Helper()
	var paths []string
	for i, sp := range specs {
		specPath := writeFile(t, dir, fmt.Sprintf("%s%d.toml", prefix, i), []byte(sp))
		part := stdout(t, figures, "-spec", specPath, "-shard", fmt.Sprintf("%d/%d", i, len(specs)))
		paths = append(paths, writeFile(t, dir, fmt.Sprintf("%s%d.json", prefix, i), part))
	}
	return paths
}

// TestMergeMatchesUnsharded: a two-shard fig1 merged by the binary is
// byte-identical to the unsharded run.
func TestMergeMatchesUnsharded(t *testing.T) {
	dir := t.TempDir()
	figures := build(t, dir, "../figures", "figures")
	shardmerge := build(t, dir, ".", "shardmerge")

	want := stdout(t, figures, "-spec", writeFile(t, dir, "fig1.toml", []byte(smallFig1)))
	got := stdout(t, shardmerge, shards(t, figures, dir, "part", smallFig1, smallFig1)...)
	if !bytes.Equal(got, want) {
		t.Fatalf("merged output differs from unsharded (%d vs %d bytes)", len(got), len(want))
	}
}

// TestRejectsBadPartials: unusable input fails with a one-line error,
// never a stack trace.
func TestRejectsBadPartials(t *testing.T) {
	dir := t.TempDir()
	oneLine := func(t *testing.T, out string) {
		t.Helper()
		if lines := strings.Count(strings.TrimSpace(out), "\n") + 1; lines != 1 {
			t.Errorf("error spans %d lines:\n%s", lines, out)
		}
	}

	t.Run("no-partials", func(t *testing.T) {
		oneLine(t, cmdtest.RunError(t, nil, "no partial files given"))
	})
	t.Run("v1-partial", func(t *testing.T) {
		v1 := writeFile(t, dir, "v1.json", []byte(`{"schema":"pargraph-partial-v1","shard":{"index":0,"count":2}}`))
		oneLine(t, cmdtest.RunError(t, []string{v1}, `schema "pargraph-partial-v1"`))
	})
	t.Run("mixed-specs", func(t *testing.T) {
		figures := build(t, dir, "../figures", "figures")
		parts := shards(t, figures, dir, "mixed", smallFig1, smallFig1+"summary = true\n")
		oneLine(t, cmdtest.RunError(t, parts, "ran spec"))
	})
}
