package sim

import (
	"context"
	"runtime"
	"sync"

	"ilp/internal/isa"
)

// BatchRun is one simulation cell of a Batch: a program and its run options
// (typically one machine × benchmark pair of a sweep, with Opts.Code set to
// the shared predecode).
type BatchRun struct {
	Prog *isa.Program
	Opts Options
}

// Batch runs N independent simulation cells across min(workers, N) shard
// goroutines, one contiguous run of cells each. A shard runs its cells one
// after another on a single reused Engine, so a batch holds one memory arena
// per shard, not one per cell, and each Reset clears only what the previous
// cell stored to.
//
// Timing is bit-identical to running each cell alone, whatever the worker
// count: every cell is a whole RunIntoCtx on an engine Reset for it, cells
// share nothing but immutable predecoded Code, and every shard owns its
// engine and disjoint elements of the results/errors slices — no shared
// mutable state, and result order is the input order by construction.
// Per-cell error isolation and budget/cancellation semantics are those of
// RunIntoCtx, applied cell by cell.
//
// A Batch is not safe for concurrent use; use one per caller at a time.
// Engines (and their memory arenas) are reused across Run calls.
type Batch struct {
	engines []Engine // one per shard
	// workers caps the shard goroutines Run spawns; 0 means GOMAXPROCS.
	workers int
	// Diagnostics of the last Run (see Shards, Mispaths, Replays).
	shards   int
	mispaths int64
	replays  int64
}

// NewBatch returns an empty batch sharding across GOMAXPROCS workers;
// engines are created on first Run.
func NewBatch() *Batch { return &Batch{} }

// NewBatchWorkers returns an empty batch sharding across at most workers
// goroutines per Run; workers ≤ 0 means GOMAXPROCS at Run time. Sharding
// never changes results — only how many cells advance concurrently.
func NewBatchWorkers(workers int) *Batch { return &Batch{workers: workers} }

// Shards returns the number of worker shards the last Run used.
func (b *Batch) Shards() int { return b.shards }

// Mispaths returns the specialized-trace guard exits taken across the last
// Run's completed cells (see Engine.mispaths).
func (b *Batch) Mispaths() int64 { return b.mispaths }

// Replays returns the superblock trace replays across the last Run's
// completed cells.
func (b *Batch) Replays() int64 { return b.replays }

// Run simulates every cell to completion and returns per-cell results and
// errors (res[i] is nil exactly when errs[i] is non-nil). A done ctx
// abandons the remaining cells with the context's cause.
func (b *Batch) Run(ctx context.Context, runs []BatchRun) ([]*Result, []error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(runs)
	results := make([]*Result, n)
	errs := make([]error, n)

	w := b.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	w = min(w, n)
	b.shards, b.mispaths, b.replays = w, 0, 0
	if w == 0 {
		return results, errs
	}
	for len(b.engines) < w {
		b.engines = append(b.engines, Engine{})
	}

	// One contiguous run of cells per shard, sizes within one cell of each
	// other. The engine slice was grown above, so no shard can move it.
	tallies := make([]shardTally, w)
	var wg sync.WaitGroup
	for s := 1; s < w; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tallies[s] = runShard(ctx, &b.engines[s], runs, results, errs, n*s/w, n*(s+1)/w)
		}()
	}
	tallies[0] = runShard(ctx, &b.engines[0], runs, results, errs, 0, n/w)
	wg.Wait()

	for _, t := range tallies {
		b.mispaths += t.mispaths
		b.replays += t.replays
	}
	return results, errs
}

// shardTally sums one shard's diagnostics over its completed cells.
type shardTally struct{ mispaths, replays int64 }

// runShard runs cells [lo, hi) one after another on e, writing only those
// elements of results and errs.
func runShard(ctx context.Context, e *Engine, runs []BatchRun, results []*Result, errs []error, lo, hi int) shardTally {
	var t shardTally
	for i := lo; i < hi; i++ {
		res := new(Result)
		if err := e.RunIntoCtx(ctx, runs[i].Prog, runs[i].Opts, res); err != nil {
			errs[i] = err
			continue
		}
		results[i] = res
		t.mispaths += e.mispaths
		t.replays += e.replays
	}
	return t
}
