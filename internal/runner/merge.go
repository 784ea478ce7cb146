package runner

import (
	"fmt"
	"os"

	"pargraph/internal/harness"
	"pargraph/internal/manifest"
	"pargraph/internal/spec"
)

// Merge reassembles a sharded run (cmd/shardmerge): it merges the
// shards' embedded manifests, failing loudly when they disagree on the
// spec hash or on any input's content, merges the partials slot-wise,
// and renders the embedded spec's artifacts through the same
// writeFigures/writeProfile an unsharded run uses, so the merged
// bytes equal the unsharded bytes by construction. When manifestPath is
// non-empty it also writes the merged manifest there; the canonical
// spec excludes sharding, so that manifest is byte-identical to the
// one an unsharded run of the same spec emits.
func Merge(parts []*harness.Partial, manifestPath string, o Options) error {
	if o.Stdout == nil {
		o.Stdout = os.Stdout
	}
	if o.Stderr == nil {
		o.Stderr = os.Stderr
	}

	shards := make([]*manifest.Manifest, len(parts))
	for i, p := range parts {
		if len(p.Manifest) == 0 {
			return fmt.Errorf("shard %s carries no manifest", p.Shard)
		}
		m, err := manifest.Decode(p.Manifest)
		if err != nil {
			return fmt.Errorf("shard %s: %w", p.Shard, err)
		}
		shards[i] = m
	}
	mm, err := manifest.Merge(shards)
	if err != nil {
		return err
	}
	sp, err := spec.Parse([]byte(mm.Spec))
	if err != nil {
		return fmt.Errorf("embedded spec: %w", err)
	}
	if err := sp.Validate(); err != nil {
		return fmt.Errorf("embedded spec: %w", err)
	}

	merged, err := harness.MergePartials(parts)
	if err != nil {
		return err
	}

	rc := &runCtx{sp: sp, o: &o, mlog: &manifest.Log{}}
	switch {
	case sp.Run.Command == spec.CmdFigures && merged.Report != nil:
		err = rc.writeFigures(merged.Report, merged.Trace)
	case sp.Run.Command == spec.CmdProfile && merged.Profile != nil:
		err = rc.writeProfile(merged.Profile)
	default:
		err = fmt.Errorf("partials carry no %s result", sp.Run.Command)
	}
	if err != nil || manifestPath == "" {
		return err
	}

	mm.Artifacts = rc.arts
	if err := mm.WriteFile(manifestPath); err != nil {
		return fmt.Errorf("writing merged manifest: %w", err)
	}
	fmt.Fprintf(o.Stderr, "wrote merged manifest to %s\n", manifestPath)
	return nil
}
