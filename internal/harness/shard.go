package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"sync"

	"pargraph/internal/sweep"
	"pargraph/internal/trace"
)

// The harness-level sharding contract: every Run* sweep dispatches its
// cells in a fixed sequential order and writes each cell's measurements
// into an index slot (see runSweep). A shard process runs the same
// sweeps with the same parameters but executes only the cells it owns
// (cell index ≡ shard index mod shard count), leaving every other slot
// at its zero value. Disjoint shards therefore produce structurally
// identical results whose non-zero slots partition the full run, and
// merging is "non-zero wins": equal values agree, a zero yields to the
// other shard's value, and two differing non-zero values mean the
// shards disagreed on something structural — a loud error, never a
// silent preference. The only cross-cell derivation, Summarize, is
// deferred to merge time (Partial.Summary). The cells themselves are
// shard-independent — each owns its machines and shares inputs
// read-only — so a merged report is byte-identical to an unsharded run,
// the same determinism contract the in-process scheduler pins for any
// -jobs value.

// InputSchema is the diskcache schema salt for harness inputs. Bump it
// whenever the meaning of a cache key or the encoding of a cached value
// changes; old entries then read as misses and regenerate, so stale
// caches can never leak between incompatible versions.
const InputSchema = "pargraph-inputs-v1"

// PartialSchema versions the shard-partial envelope. cmd/shardmerge
// refuses partials written under any other version.
const PartialSchema = "pargraph-partial-v1"

// CellTrace is one cell's recorded event stream, tagged with its sweep
// sequence number (the order of runSweep calls within the run — the
// same in every shard process, since all shards execute the same Run*
// calls) and its cell index within that sweep. Sorting a merged run's
// cell traces by (Sweep, Cell) and concatenating reproduces exactly the
// stream an unsharded run forwards to its TraceSink.
type CellTrace struct {
	Sweep  int           `json:"sweep"`
	Cell   int           `json:"cell"`
	Events []trace.Event `json:"events"`
}

// PartialTraceLog collects CellTraces across a run's sweeps. The cmds
// install one (PartialTraces) when a shard run needs to carry its trace
// to the merge; runSweep appends every owned, non-empty cell stream.
type PartialTraceLog struct {
	mu     sync.Mutex
	sweeps int
	cells  []CellTrace
}

// addSweep assigns the next sweep sequence number and logs the sweep's
// recorded cells. Nil recorders (cells this shard does not own) and
// empty streams contribute nothing, exactly like the TraceSink path.
func (l *PartialTraceLog) addSweep(recs []*trace.Recorder) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq := l.sweeps
	l.sweeps++
	for i, r := range recs {
		if r == nil || len(r.Events) == 0 {
			continue
		}
		l.cells = append(l.cells, CellTrace{Sweep: seq, Cell: i, Events: r.Events})
	}
}

// Take returns the collected cell traces.
func (l *PartialTraceLog) Take() []CellTrace {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cells
}

// ProfilePartial is a shard's slice of a profile run: the parameters
// (identical in every shard) and the zero-slotted per-machine runs. The
// traced event streams travel separately as Partial.Trace.
type ProfilePartial struct {
	Params ProfileParams `json:"params"`
	Runs   []ProfileRun  `json:"runs"`
}

// Partial is the JSON envelope one shard process emits: which shard it
// was, its zero-slotted results, and (when requested) its cells' traces.
type Partial struct {
	Schema string      `json:"schema"`
	Shard  sweep.Shard `json:"shard"`
	// Summary records that the run wants the §5 headline ratios, which
	// derive from every fig1/fig2 cell and so can only be computed once
	// the shards are merged.
	Summary bool            `json:"summary,omitempty"`
	Report  *Report         `json:"report,omitempty"`
	Profile *ProfilePartial `json:"profile,omitempty"`
	Trace   []CellTrace     `json:"trace,omitempty"`
	// Manifest, when the shard ran under -emit-manifest, is the shard's
	// reproducibility manifest (internal/manifest JSON, inputs only —
	// artifacts are rendered at merge time). It travels inside the
	// envelope, which is itself never a hashed artifact, so there is no
	// self-reference; cmd/shardmerge merges the shard manifests and
	// fails loudly when they disagree on the spec or any input.
	Manifest json.RawMessage `json:"manifest,omitempty"`
}

// WriteJSON emits the partial as indented JSON.
func (p *Partial) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// ReadPartial decodes and version-checks one shard partial.
func ReadPartial(r io.Reader) (*Partial, error) {
	var p Partial
	dec := json.NewDecoder(r)
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("harness: reading shard partial: %w", err)
	}
	if p.Schema != PartialSchema {
		return nil, fmt.Errorf("harness: shard partial has schema %q, this build understands %q", p.Schema, PartialSchema)
	}
	return &p, nil
}

// Merged is a complete run reassembled from a full shard set.
type Merged struct {
	Report  *Report
	Profile *ProfileResult
	// Trace is the reassembled whole-run event stream — what an
	// unsharded run's TraceSink would hold. Nil when no shard carried
	// traces.
	Trace *trace.Recorder
}

// MergePartials reassembles one run from its complete shard set. The
// set must be exactly one partial per shard index of a single count;
// results merge slot-wise ("non-zero wins", differing non-zero values
// are an error), traces reassemble in (sweep, cell) order, and the
// summary — if any shard requested it — is computed here from the
// merged figures.
func MergePartials(parts []*Partial) (*Merged, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("harness: no shard partials to merge")
	}
	count := parts[0].Shard.Count
	if count < 1 {
		count = 1
	}
	if len(parts) != count {
		return nil, fmt.Errorf("harness: got %d partials for a %d-shard run", len(parts), count)
	}
	byIndex := make([]*Partial, count)
	for _, p := range parts {
		if p.Shard.Count != parts[0].Shard.Count {
			return nil, fmt.Errorf("harness: mixed shard counts %d and %d", parts[0].Shard.Count, p.Shard.Count)
		}
		i := p.Shard.Index
		if i < 0 || i >= count {
			return nil, fmt.Errorf("harness: shard index %d out of range for count %d", i, count)
		}
		if byIndex[i] != nil {
			return nil, fmt.Errorf("harness: duplicate partial for shard %s", p.Shard)
		}
		byIndex[i] = p
	}

	m := &Merged{}
	var summary bool
	for _, p := range byIndex {
		summary = summary || p.Summary
		if p.Report != nil {
			if m.Report == nil {
				m.Report = &Report{}
			}
			if err := mergeInto(reflect.ValueOf(m.Report).Elem(), reflect.ValueOf(p.Report).Elem(), "report"); err != nil {
				return nil, fmt.Errorf("harness: merging shard %s: %w", p.Shard, err)
			}
		}
		if p.Profile != nil {
			if m.Profile == nil {
				m.Profile = &ProfileResult{}
			}
			pp := ProfilePartial{Params: m.Profile.Params, Runs: m.Profile.Runs}
			if err := mergeInto(reflect.ValueOf(&pp).Elem(), reflect.ValueOf(p.Profile).Elem(), "profile"); err != nil {
				return nil, fmt.Errorf("harness: merging shard %s: %w", p.Shard, err)
			}
			m.Profile.Params, m.Profile.Runs = pp.Params, pp.Runs
		}
	}

	var cells []CellTrace
	for _, p := range byIndex {
		cells = append(cells, p.Trace...)
	}
	if len(cells) > 0 {
		sort.Slice(cells, func(a, b int) bool {
			if cells[a].Sweep != cells[b].Sweep {
				return cells[a].Sweep < cells[b].Sweep
			}
			return cells[a].Cell < cells[b].Cell
		})
		for i := 1; i < len(cells); i++ {
			if cells[i].Sweep == cells[i-1].Sweep && cells[i].Cell == cells[i-1].Cell {
				return nil, fmt.Errorf("harness: two shards both traced sweep %d cell %d", cells[i].Sweep, cells[i].Cell)
			}
		}
		m.Trace = &trace.Recorder{}
		for _, ct := range cells {
			m.Trace.Events = append(m.Trace.Events, ct.Events...)
		}
	}
	if m.Profile != nil {
		m.Profile.Recorder = m.Trace
		if m.Profile.Recorder == nil {
			m.Profile.Recorder = &trace.Recorder{}
		}
	}

	if summary {
		if m.Report == nil || m.Report.Fig1 == nil || m.Report.Fig2 == nil {
			return nil, fmt.Errorf("harness: partials request a summary but the merged report lacks fig1/fig2")
		}
		sum, err := Summarize(m.Report.Fig1, m.Report.Fig2)
		if err != nil {
			return nil, err
		}
		m.Report.Summary = sum
	}
	return m, nil
}

// mergeInto folds src into dst slot-wise. A zero dst takes src; a zero
// src leaves dst; equal values agree; differing non-zero values are a
// conflict. Structs and equal-length slices merge element-wise so the
// zero-vs-set comparison happens at the slot where a shard actually
// wrote, not on whole aggregates.
func mergeInto(dst, src reflect.Value, path string) error {
	if src.IsZero() {
		return nil
	}
	if dst.IsZero() {
		dst.Set(src)
		return nil
	}
	switch dst.Kind() {
	case reflect.Pointer:
		return mergeInto(dst.Elem(), src.Elem(), path)
	case reflect.Struct:
		t := dst.Type()
		for i := 0; i < t.NumField(); i++ {
			if !t.Field(i).IsExported() {
				continue
			}
			if err := mergeInto(dst.Field(i), src.Field(i), path+"."+t.Field(i).Name); err != nil {
				return err
			}
		}
		return nil
	case reflect.Slice:
		if dst.Len() != src.Len() {
			return fmt.Errorf("%s: shards produced lengths %d and %d", path, dst.Len(), src.Len())
		}
		for i := 0; i < dst.Len(); i++ {
			if err := mergeInto(dst.Index(i), src.Index(i), fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
		return nil
	default:
		if !reflect.DeepEqual(dst.Interface(), src.Interface()) {
			return fmt.Errorf("%s: shards disagree (%v vs %v)", path, dst.Interface(), src.Interface())
		}
		return nil
	}
}
