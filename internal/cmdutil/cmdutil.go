// Package cmdutil holds the flag-validation helpers shared by the
// command-line tools, so every cmd rejects bad sizes and worker counts
// with a one-line error instead of a panic stack trace, and none of
// them drifts out of step on the -workers convention.
package cmdutil

import (
	"fmt"
	"io"
	"os"
	"runtime"

	"pargraph/internal/diskcache"
)

// ResolveWorkers validates a -workers flag value: negative values are
// rejected, 0 passes through as the machines' auto mode (use every host
// core, but keep regions too small to repay sharding on the serial
// path — see SetHostWorkers in internal/mta and internal/smp), and
// positive values pass through as explicit counts. The clamping inside
// the machines' SetHostWorkers is a backstop, not the interface — every
// cmd resolves the flag here so a typo'd "-workers -1" fails loudly
// instead of silently running serial.
func ResolveWorkers(w int) (int, error) {
	if w < 0 {
		return 0, fmt.Errorf("-workers must be >= 0 (0 = auto: one per host CPU with a serial fallback for small regions), got %d", w)
	}
	return w, nil
}

// ResolveJobs validates a -jobs flag value: negative values are
// rejected, 0 means one concurrent experiment cell per host CPU, and
// positive values pass through. The sweep scheduler's own GOMAXPROCS
// cap is a backstop, as with ResolveWorkers.
func ResolveJobs(j int) (int, error) {
	if j < 0 {
		return 0, fmt.Errorf("-jobs must be >= 0 (0 = one per host CPU), got %d", j)
	}
	if j == 0 {
		return runtime.NumCPU(), nil
	}
	return j, nil
}

// CacheEnv is the environment variable consulted when -cache-dir is
// not given. The persistent input cache stays off unless one of the
// two names a directory.
const CacheEnv = "PARGRAPH_CACHE"

// OpenCache resolves the persistent input-cache directory — the
// -cache-dir flag wins, then $PARGRAPH_CACHE, then off — and opens a
// content-addressed store there under the given schema salt. Returns
// (nil, nil) when caching is off.
func OpenCache(flagValue, schema string) (*diskcache.Store, error) {
	dir := flagValue
	if dir == "" {
		dir = os.Getenv(CacheEnv)
	}
	if dir == "" {
		return nil, nil
	}
	s, err := diskcache.Open(dir, schema)
	if err != nil {
		return nil, fmt.Errorf("opening input cache: %w", err)
	}
	return s, nil
}

// PrintCacheStats reports one store's traffic counters in the -cache-stats
// stderr format every experiment command shares. A nil store prints the
// cache as off, so callers can pass their store handles unconditionally.
func PrintCacheStats(w io.Writer, name string, s *diskcache.Store) {
	if s == nil {
		fmt.Fprintf(w, "%s cache: off\n", name)
		return
	}
	st := s.Stats()
	fmt.Fprintf(w, "%s cache (%s): hits=%d misses=%d rejects=%d puts=%d prunes=%d read=%dB written=%dB\n",
		name, s.Dir(), st.Hits, st.Misses, st.Rejects, st.Puts, st.Prunes, st.BytesRead, st.BytesWritten)
}

// CheckPositive rejects non-positive values of a size flag.
func CheckPositive(name string, v int) error {
	if v <= 0 {
		return fmt.Errorf("%s must be positive, got %d", name, v)
	}
	return nil
}

// CheckGraphGen validates generator parameters up front, mirroring the
// preconditions the internal/graph constructors enforce by panicking.
// gen is one of gnm, rmat, mesh2d, mesh3d, torus; the rmat case derives
// the scale from n the way the cmds do (smallest power of two >= n).
func CheckGraphGen(gen string, n, m, rows, cols, depth int) error {
	switch gen {
	case "gnm":
		if n <= 0 {
			return fmt.Errorf("gnm needs -n >= 1, got %d", n)
		}
		if m < 0 {
			return fmt.Errorf("gnm needs -m >= 0, got %d", m)
		}
		if maxM := int64(n) * int64(n-1) / 2; int64(m) > maxM {
			return fmt.Errorf("gnm with -n %d holds at most %d edges, got -m %d", n, maxM, m)
		}
	case "rmat":
		if n <= 0 {
			return fmt.Errorf("rmat needs -n >= 1, got %d", n)
		}
		scale := 0
		for 1<<scale < n {
			scale++
		}
		if scale < 1 {
			scale = 1
		}
		if scale > 30 {
			return fmt.Errorf("rmat scale %d (from -n %d) exceeds the supported 30", scale, n)
		}
		if m < 0 {
			return fmt.Errorf("rmat needs -m >= 0, got %d", m)
		}
		nr := int64(1) << scale
		if maxM := nr * (nr - 1) / 4; int64(m) > maxM {
			return fmt.Errorf("rmat at scale %d supports at most %d edges, got -m %d", scale, maxM, m)
		}
	case "mesh2d":
		if rows <= 0 || cols <= 0 {
			return fmt.Errorf("mesh2d needs positive -rows and -cols, got %dx%d", rows, cols)
		}
	case "mesh3d":
		if rows <= 0 || cols <= 0 || depth <= 0 {
			return fmt.Errorf("mesh3d needs positive -rows, -cols and -depth, got %dx%dx%d", rows, cols, depth)
		}
	case "torus":
		if rows <= 0 || cols <= 0 {
			return fmt.Errorf("torus needs positive -rows and -cols, got %dx%d", rows, cols)
		}
	default:
		return fmt.Errorf("unknown generator %q (want gnm, rmat, mesh2d, mesh3d, or torus)", gen)
	}
	return nil
}
