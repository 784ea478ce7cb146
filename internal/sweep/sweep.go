// Package sweep is the experiment-level scheduler: it runs the
// independent cells of a parameter sweep (kernel × machine × procs ×
// size × seed) concurrently on a bounded number of host goroutines,
// with results collected into caller-owned index slots so the assembled
// output is bit-identical to a sequential run for any jobs count.
//
// This is the "throughput over latency" lever one level up from the
// machines' SetHostWorkers: within-region replay parallelism plateaus
// once a region's fork/join overhead is paid, but whole simulation
// cells share nothing except their read-only inputs, so they scale with
// host cores until memory bandwidth runs out. The Cache half of the
// package makes the inputs genuinely shared: each (generator, size,
// seed) workload is built once, single-flight, and every cell that asks
// for it blocks until the one build finishes.
//
// Determinism contract: Run dispatches cells in ascending index order,
// never aborts early, and reports the lowest-index failure — so the
// error a caller sees, like the results it assembles, does not depend
// on the jobs count or on scheduling.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Shard names the slice of a sweep's cells one process owns: those
// whose index i satisfies i % Count == Index. Cells are dispatched in
// ascending index order and their outputs are index-slotted, so the
// modulo assignment is stable across processes by construction — every
// shard agrees on which cells are whose without coordination, and a
// merge of all Count shards' slots reassembles exactly the unsharded
// result. The zero Shard (Count 0) owns every cell, as does 0/1.
type Shard struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// Active reports whether the shard actually partitions the sweep
// (Count >= 2); inactive shards own everything.
func (s Shard) Active() bool { return s.Count >= 2 }

// Owns reports whether cell i belongs to this shard.
func (s Shard) Owns(i int) bool { return !s.Active() || i%s.Count == s.Index }

func (s Shard) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// ParseShard parses a shard string of the form "i/N" (own the cells
// with index ≡ i mod N). The empty string is the unsharded run, and i
// must satisfy 0 <= i < N. Errors carry no prefix; callers name the
// flag or spec key they parsed.
func ParseShard(s string) (Shard, error) {
	if s == "" {
		return Shard{}, nil
	}
	idxS, cntS, ok := strings.Cut(s, "/")
	idx, err1 := strconv.Atoi(idxS)
	cnt, err2 := strconv.Atoi(cntS)
	if !ok || err1 != nil || err2 != nil {
		return Shard{}, fmt.Errorf("shard must look like i/N (e.g. 0/4), got %q", s)
	}
	if cnt < 1 {
		return Shard{}, fmt.Errorf("shard count must be >= 1, got %d", cnt)
	}
	if idx < 0 || idx >= cnt {
		return Shard{}, fmt.Errorf("shard index must satisfy 0 <= i < %d, got %d", cnt, idx)
	}
	return Shard{Index: idx, Count: cnt}, nil
}

// PanicError is the error Run reports for a cell whose function
// panicked: the panic is confined to its cell (other cells still run to
// completion) and surfaces here with the recovered value and stack.
type PanicError struct {
	Cell  int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep: cell %d panicked: %v\n%s", e.Cell, e.Value, e.Stack)
}

// Run executes cell(0..n-1) on at most jobs concurrent goroutines and
// returns the lowest-index cell error, or nil if every cell succeeded.
//
// jobs values below 1 run serially; counts above runtime.GOMAXPROCS(0)
// are capped there, since the cells are host-CPU-bound and extra
// goroutines would only add scheduling overhead. Every cell runs even
// when some fail — a bad cell fails its own slot, not the sweep — so
// the set of attempted cells, like the reported error, is independent
// of jobs. A panic inside a cell is captured as a *PanicError for that
// cell.
func Run(n, jobs int, cell func(i int) error) error {
	return RunCtx(context.Background(), n, jobs, cell)
}

// RunCtx is Run under a context: once ctx is cancelled no further cells
// are dispatched, so an interrupted run (a shard getting SIGTERM from
// its coordinator, say) exits after at most the jobs cells already in
// flight instead of draining the whole dispatch counter. Cancellation
// is the one departure from the determinism contract — the set of
// attempted cells becomes whatever was dispatched in ascending order
// before the cancel landed. If a dispatched cell also failed, its
// lowest-index error wins; otherwise a cancelled run reports ctx's
// cause.
func RunCtx(ctx context.Context, n, jobs int, cell func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if jobs < 1 {
		jobs = 1
	}
	if max := runtime.GOMAXPROCS(0); jobs > max {
		jobs = max
	}
	if jobs > n {
		jobs = n
	}
	errs := make([]error, n)
	if jobs == 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return firstErrorOr(errs, context.Cause(ctx))
			}
			errs[i] = runCell(i, cell)
		}
		return firstError(errs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(jobs)
	for w := 0; w < jobs; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = runCell(i, cell)
			}
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		return firstErrorOr(errs, context.Cause(ctx))
	}
	return firstError(errs)
}

// runCell invokes one cell, converting a panic into its *PanicError.
func runCell(i int, cell func(int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Cell: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return cell(i)
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// firstErrorOr reports the lowest-index cell error, falling back to the
// cancellation cause when every attempted cell succeeded.
func firstErrorOr(errs []error, cause error) error {
	if err := firstError(errs); err != nil {
		return err
	}
	return cause
}
