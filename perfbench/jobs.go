package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pargraph/internal/manifest"
)

// Input sizes of the seeded single-kernel jobs. The paper's 2^20
// kernels made a cold round about 8 s on a 2-vCPU host, too few rounds
// per run; these sizes keep a round near 4.5 s.
const (
	listN  = 1 << 18
	graphN = 1 << 14
	graphM = 8 * graphN
)

// figureSpecs are the checked-in paper specs every round replays. They
// carry the harness's fixed seeds, so their artifacts do not depend on
// the workload seed.
var figureSpecs = []string{"e1_fig1", "e2_fig2", "e3_table1", "e8_coloring"}

// jobDef is one position of a round.
type jobDef struct {
	kind   string // "e1_fig1", "listrank-mta", ...
	class  string // "warm" or "cold" in serve-mix, "" in-process
	text   string // the spec, TOML
	kernel bool   // seeded single-kernel job with verify = true
	fresh  bool   // runs on a seed used nowhere else in the run, so it has no pin
}

// withAutoWorkers puts jobs and host workers on auto (0) for a spec
// that does not set them; both are outside the spec hash.
func withAutoWorkers(text string) string {
	return strings.Replace(text, "[run]\n", "[run]\nworkers = 0\njobs = 0\n", 1)
}

// kernelJob is a seeded single-kernel spec with verification on.
func kernelJob(command, machine string, seed uint64) jobDef {
	var w string
	switch command {
	case "listrank":
		w = fmt.Sprintf("n = %d\nlayout = \"random\"\n", listN)
	case "concomp":
		w = fmt.Sprintf("gen = \"gnm\"\nn = %d\nm = %d\n", graphN, graphM)
	default: // coloring
		w = fmt.Sprintf("gen = \"rmat\"\nn = %d\nm = %d\n", graphN, graphM)
	}
	text := fmt.Sprintf("[run]\ncommand = %q\nseed = %d\nworkers = 0\njobs = 0\n\n[workload]\n%smachine = %q\nverify = true\n",
		command, seed, w, machine)
	return jobDef{kind: command + "-" + machine, text: text, kernel: true}
}

// paperRound is the job sequence a researcher runs to regenerate the
// paper: the four checked-in figure specs, then seeded list ranking and
// connected components on both machines.
func paperRound(root string, seed uint64) ([]jobDef, error) {
	var jobs []jobDef
	for _, name := range figureSpecs {
		data, err := os.ReadFile(filepath.Join(root, "specs", name+".toml"))
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, jobDef{kind: name, text: withAutoWorkers(string(data))})
	}
	for _, cmd := range []string{"listrank", "concomp"} {
		for _, m := range []string{"mta", "smp"} {
			jobs = append(jobs, kernelJob(cmd, m, seed))
		}
	}
	return jobs, nil
}

// artifact is one produced output of a job.
type artifact struct {
	name string
	data []byte
}

//go:embed pins.json
var pinsJSON []byte

// pinFile is pins.json: SHA-256 of every non-manifest artifact, keyed
// "kind/artifact". Fixed pins hold for any seed; Seeds holds the seeded
// kernels' pins for the default and the held-out seed.
type pinFile struct {
	Fixed map[string]string            `json:"fixed"`
	Seeds map[string]map[string]string `json:"seeds"`
}

// gate is the correctness gate every job's outputs pass through.
type gate struct {
	mu     sync.Mutex
	fixed  map[string]string
	seeded map[string]string // nil when the seed has no pins
	seen   map[string]string // first sighting of each artifact, for cold/warm/served identity

	// record, when non-nil, collects hashes instead of checking pins
	// (-write-pins).
	record map[string]string
}

func newGate(seed uint64) (*gate, error) {
	var pf pinFile
	if err := json.Unmarshal(pinsJSON, &pf); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return &gate{fixed: pf.Fixed, seeded: pf.Seeds[strconv.FormatUint(seed, 10)], seen: map[string]string{}}, nil
}

// check verifies one finished job's artifacts. Pinned artifacts must
// be present with their pinned hash and unpinned artifacts fail, except
// where no pin can exist: seeded kernels on an unpinned seed, and fresh
// cold jobs. Every artifact must also match its first sighting in the
// run, so cold, warm and served bytes of one spec agree.
func (g *gate) check(j jobDef, arts []artifact) error {
	got := map[string]string{}
	for _, a := range arts {
		if a.name == "manifest" {
			continue
		}
		got[a.name] = manifest.HashBytes(a.data)
		if j.kernel && a.name == "stdout" && !bytes.Contains(a.data, []byte("verified ok")) {
			return fmt.Errorf("%s: stdout lacks the kernel's verification line", j.kind)
		}
	}
	if g.record != nil {
		g.mu.Lock()
		for name, sum := range got {
			g.record[j.kind+"/"+name] = sum
		}
		g.mu.Unlock()
		return nil
	}
	if j.fresh {
		if len(got) != 1 || got["stdout"] == "" {
			return fmt.Errorf("%s: want exactly a stdout artifact, got %v", j.kind, keys(got))
		}
		return nil
	}
	pins := g.fixed
	if j.kernel {
		pins = g.seeded
	}
	if pins != nil {
		for name, sum := range got {
			want, ok := pins[j.kind+"/"+name]
			if !ok {
				return fmt.Errorf("%s: artifact %q has no pin", j.kind, name)
			}
			if want != sum {
				return fmt.Errorf("%s: artifact %q hash %s, pinned %s", j.kind, name, sum[:12], want[:12])
			}
		}
		for key := range pins {
			if name, ok := strings.CutPrefix(key, j.kind+"/"); ok && got[name] == "" {
				return fmt.Errorf("%s: pinned artifact %q missing", j.kind, name)
			}
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	set := strings.Join(keys(got), ",")
	if prev, ok := g.seen[j.kind]; ok && prev != set {
		return fmt.Errorf("%s: artifacts %s, first run had %s", j.kind, set, prev)
	}
	g.seen[j.kind] = set
	for name, sum := range got {
		key := j.kind + "/" + name
		if prev, ok := g.seen[key]; ok && prev != sum {
			return fmt.Errorf("%s: artifact %q differs from its first run", j.kind, name)
		}
		g.seen[key] = sum
	}
	return nil
}

// keys returns the map's keys in order.
func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// writePins runs one cold paper round for each seed and writes the
// hashes of its artifacts as pins.json.
func (b *bench) writePins(path string, seeds []uint64) error {
	pf := pinFile{Fixed: map[string]string{}, Seeds: map[string]map[string]string{}}
	for _, seed := range seeds {
		jobs, err := paperRound(b.root, seed)
		if err != nil {
			return err
		}
		b.gate.record = map[string]string{}
		r := (&inproc{b: b}).runRound(jobs, b.tempDir())
		for _, j := range r.jobs {
			if !j.ok {
				return fmt.Errorf("seed %d: job %s failed", seed, j.kind)
			}
		}
		seeded := map[string]string{}
		for key, sum := range b.gate.record {
			kind, _, _ := strings.Cut(key, "/")
			if strings.Contains(kind, "-") {
				seeded[key] = sum
			} else if prev, ok := pf.Fixed[key]; ok && prev != sum {
				return fmt.Errorf("%s differs between seeds", key)
			} else {
				pf.Fixed[key] = sum
			}
		}
		pf.Seeds[strconv.FormatUint(seed, 10)] = seeded
	}
	data, err := json.MarshalIndent(pf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
