package sim

// Tests for engine reuse the way a sweep drives it. A batch here is a list
// of cells run back to back on one engine — what one worker slot of the
// experiments runner does with its borrowed engine — and a parallel batch
// splits the cells across several such engines running at once, sharing
// predecoded Code. Either way every cell must be bit-identical to a fresh
// Run: reuse is pure scheduling, never timing. The package runs under
// -race in `make check` (race-concurrency), so the parallel tests also
// prove concurrent engines share no mutable state.

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"ilp/internal/isa"
	"ilp/internal/machine"
)

// cell is one simulation of a batch.
type cell struct {
	prog *isa.Program
	opts Options
}

// batchCells builds a mixed workload: several programs (tight loop, random
// CFGs) across the differential machine set, sharing predecoded Code within
// each (program, machine) cell as the experiments runner would.
func batchCells(t *testing.T) []cell {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	progs := []*isa.Program{
		tightLoop(600),
		tightLoop(200_000), // long enough to pass several cancellation polls
		randomCFGProgram(rng),
		randomCFGProgram(rng),
	}
	var cells []cell
	for _, p := range progs {
		for _, cfg := range diffMachines() {
			opts := Options{Machine: cfg, CountInstrs: true}
			if cfg.ICache == nil && cfg.DCache == nil {
				code, err := Predecode(p, cfg)
				if err != nil {
					t.Fatalf("predecode: %v", err)
				}
				opts.Code = code
			}
			cells = append(cells, cell{p, opts})
		}
	}
	return cells
}

// runBatch runs cells back to back on e, writing results[i] or errs[i] for
// every cell.
func runBatch(ctx context.Context, e *Engine, cells []cell, results []*Result, errs []error) {
	for i, c := range cells {
		res := new(Result)
		if errs[i] = e.RunIntoCtx(ctx, c.prog, c.opts, res); errs[i] == nil {
			results[i] = res
		}
	}
}

// runParallel splits cells into one contiguous run per engine and runs the
// runs concurrently, each as a batch on its own engine.
func runParallel(ctx context.Context, engines []*Engine, cells []cell) ([]*Result, []error) {
	n, w := len(cells), len(engines)
	results, errs := make([]*Result, n), make([]error, n)
	var wg sync.WaitGroup
	for s, e := range engines {
		lo, hi := n*s/w, n*(s+1)/w
		wg.Add(1)
		go func() {
			defer wg.Done()
			runBatch(ctx, e, cells[lo:hi], results[lo:hi], errs[lo:hi])
		}()
	}
	wg.Wait()
	return results, errs
}

// borrowed returns n engines from the pool and a func releasing them.
func borrowed(n int) ([]*Engine, func()) {
	engines := make([]*Engine, n)
	for i := range engines {
		engines[i] = Borrow()
	}
	return engines, func() {
		for _, e := range engines {
			e.Release()
		}
	}
}

// divByZeroProgram traps when its loop counter reaches zero.
func divByZeroProgram() *isa.Program {
	bld := isa.NewBuilder()
	bld.Li(isa.R(1), 8)
	bld.Li(isa.R(2), 0)
	bld.Label("loop")
	bld.Imm(isa.OpAddi, isa.R(1), isa.R(1), -1)
	bld.Op(isa.OpDiv, isa.R(3), isa.R(2), isa.R(1)) // traps when r1 reaches 0
	bld.Branch(isa.OpBgt, isa.R(1), isa.RZero, "loop")
	bld.Print(isa.R(3))
	bld.Halt()
	return bld.MustFinish()
}

// TestBatchBitIdentical runs every cell back to back on one engine and
// requires each result bit-identical (sameResult) to a fresh Run of the
// same cell.
func TestBatchBitIdentical(t *testing.T) {
	cells := batchCells(t)
	results, errs := make([]*Result, len(cells)), make([]error, len(cells))
	runBatch(context.Background(), NewEngine(), cells, results, errs)
	for i, c := range cells {
		want, werr := Run(c.prog, c.opts)
		if werr != nil {
			t.Fatalf("cell %d: individual run failed: %v", i, werr)
		}
		if errs[i] != nil {
			t.Errorf("cell %d (%s): batch error: %v", i, c.opts.Machine.Name, errs[i])
			continue
		}
		if !sameResult(results[i], want) {
			t.Errorf("cell %d (%s): reused-engine result diverged:\n got %+v\nwant %+v",
				i, c.opts.Machine.Name, results[i], want)
		}
	}
}

// TestBatchReuse runs the whole batch twice on one borrowed engine: the
// second pass, on an engine that has already run every cell, must match
// the first.
func TestBatchReuse(t *testing.T) {
	cells := batchCells(t)
	e := Borrow()
	defer e.Release()
	n := len(cells)
	first, errs1 := make([]*Result, n), make([]error, n)
	second, errs2 := make([]*Result, n), make([]error, n)
	runBatch(context.Background(), e, cells, first, errs1)
	runBatch(context.Background(), e, cells, second, errs2)
	for i := range cells {
		if errs1[i] != nil || errs2[i] != nil {
			t.Fatalf("cell %d: errors %v / %v", i, errs1[i], errs2[i])
		}
		if !sameResult(first[i], second[i]) {
			t.Errorf("cell %d: second pass diverged", i)
		}
	}
}

// TestBatchCellError pins per-cell error isolation on one engine: a
// faulting cell reports the same error an individual run would, and the
// cells after it on the same engine complete unharmed.
func TestBatchCellError(t *testing.T) {
	bad := divByZeroProgram()
	cells := []cell{
		{tightLoop(600), Options{Machine: machine.Base()}},
		{bad, Options{Machine: machine.Base()}},
		{tightLoop(600), Options{Machine: machine.IdealSuperscalar(4)}},
	}
	results, errs := make([]*Result, len(cells)), make([]error, len(cells))
	runBatch(context.Background(), NewEngine(), cells, results, errs)

	if _, werr := Run(bad, cells[1].opts); werr == nil {
		t.Fatal("individual run of the faulting program did not fail")
	} else if errs[1] == nil || errs[1].Error() != werr.Error() {
		t.Errorf("faulting cell error = %v, want %v", errs[1], werr)
	}
	for _, i := range []int{0, 2} {
		want, _ := Run(cells[i].prog, cells[i].opts)
		if errs[i] != nil {
			t.Errorf("cell %d: unexpected error: %v", i, errs[i])
		} else if !sameResult(results[i], want) {
			t.Errorf("cell %d: result diverged from individual run", i)
		}
	}
}

// TestBatchCancelled: under an already-cancelled ctx every cell fails with
// the cancellation and yields no result.
func TestBatchCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cells := []cell{
		{tightLoop(600), Options{Machine: machine.Base()}},
		{tightLoop(600), Options{Machine: machine.IdealSuperscalar(2)}},
	}
	results, errs := make([]*Result, len(cells)), make([]error, len(cells))
	runBatch(ctx, NewEngine(), cells, results, errs)
	for i := range cells {
		if errs[i] == nil || results[i] != nil {
			t.Errorf("cell %d: want cancellation error, got res=%v err=%v", i, results[i], errs[i])
		}
	}
}

// TestBatchParallelMatchesSerial pins concurrent engines to one serial
// engine: same cells, bit-identical results, across engine counts that divide
// the cells evenly and unevenly (more engines than cells included).
func TestBatchParallelMatchesSerial(t *testing.T) {
	cells := batchCells(t)
	want, wantErrs := runParallel(context.Background(), []*Engine{NewEngine()}, cells)
	for _, workers := range []int{2, 3, 4, len(cells) + 5} {
		engines, release := borrowed(workers)
		got, errs := runParallel(context.Background(), engines, cells)
		release()
		for i := range cells {
			if (errs[i] == nil) != (wantErrs[i] == nil) {
				t.Errorf("workers=%d cell %d: error mismatch: %v vs %v", workers, i, errs[i], wantErrs[i])
				continue
			}
			if !sameResult(got[i], want[i]) {
				t.Errorf("workers=%d cell %d (%s): parallel result diverged from serial",
					workers, i, cells[i].opts.Machine.Name)
			}
		}
	}
}

// TestBatchParallelCellError pins per-cell error isolation across engines:
// a faulting cell reports the same error an individual run would, and
// every sibling — on its own engine and on others — completes unharmed.
func TestBatchParallelCellError(t *testing.T) {
	bad := divByZeroProgram()
	cells := []cell{
		{tightLoop(600), Options{Machine: machine.Base()}},
		{bad, Options{Machine: machine.Base()}},
		{tightLoop(600), Options{Machine: machine.IdealSuperscalar(4)}},
		{tightLoop(900), Options{Machine: machine.IdealSuperscalar(2)}},
	}
	engines, release := borrowed(2)
	defer release()
	results, errs := runParallel(context.Background(), engines, cells)

	_, werr := Run(bad, cells[1].opts)
	if werr == nil {
		t.Fatal("individual run of the faulting program did not fail")
	}
	if errs[1] == nil || errs[1].Error() != werr.Error() {
		t.Errorf("faulting cell error = %v, want %v", errs[1], werr)
	}
	for _, i := range []int{0, 2, 3} {
		want, _ := Run(cells[i].prog, cells[i].opts)
		if errs[i] != nil {
			t.Errorf("cell %d: unexpected error: %v", i, errs[i])
		} else if !sameResult(results[i], want) {
			t.Errorf("cell %d: result diverged from individual run", i)
		}
	}
}

// TestBatchParallelLimitOneCell gives exactly one cell an instruction
// budget it must exceed: the trip lands in that cell alone — its engine
// goes on to run its next cell, and no other engine is disturbed.
func TestBatchParallelLimitOneCell(t *testing.T) {
	cells := []cell{
		{tightLoop(200_000), Options{Machine: machine.Base(), MaxInstructions: 1000}},
		{tightLoop(200_000), Options{Machine: machine.Base()}},
		{tightLoop(200_000), Options{Machine: machine.IdealSuperscalar(4)}},
		{tightLoop(600), Options{Machine: machine.Base()}},
	}
	engines, release := borrowed(2) // cells 0 and 1 share the first engine
	defer release()
	results, errs := runParallel(context.Background(), engines, cells)
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "instruction limit") {
		t.Errorf("budgeted cell: want instruction-limit error, got %v", errs[0])
	}
	if results[0] != nil {
		t.Error("budgeted cell: result must be nil on error")
	}
	for _, i := range []int{1, 2, 3} {
		want, _ := Run(cells[i].prog, cells[i].opts)
		if errs[i] != nil {
			t.Errorf("cell %d: unexpected error: %v", i, errs[i])
		} else if !sameResult(results[i], want) {
			t.Errorf("cell %d: result diverged from individual run", i)
		}
	}
}

// TestBatchParallelCancelMidShard cancels while every engine is mid-run:
// long cells split across engines, cancel fired from outside after the
// runs are underway. Every cell must settle exactly one way — a completed
// result or a cancellation error — and a rerun on the same engines must
// complete clean (an engine recovers from an abandoned run).
func TestBatchParallelCancelMidShard(t *testing.T) {
	cells := []cell{
		{tightLoop(80_000_000), Options{Machine: machine.Base()}},
		{tightLoop(80_000_000), Options{Machine: machine.Base()}},
		{tightLoop(80_000_000), Options{Machine: machine.IdealSuperscalar(4)}},
		{tightLoop(80_000_000), Options{Machine: machine.IdealSuperscalar(2)}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	engines, release := borrowed(4)
	defer release()
	results, errs := runParallel(ctx, engines, cells)
	cancelled := 0
	for i := range cells {
		if (results[i] == nil) != (errs[i] != nil) {
			t.Errorf("cell %d: res/err disagree: res=%v err=%v", i, results[i], errs[i])
		}
		if errs[i] != nil {
			if !strings.Contains(errs[i].Error(), "context canceled") {
				t.Errorf("cell %d: want cancellation, got %v", i, errs[i])
			}
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Skip("cells completed before cancellation; nothing to assert")
	}
	short := []cell{
		{tightLoop(600), Options{Machine: machine.Base()}},
		{tightLoop(600), Options{Machine: machine.IdealSuperscalar(2)}},
	}
	res2, errs2 := runParallel(context.Background(), engines, short)
	for i, c := range short {
		want, _ := Run(c.prog, c.opts)
		if errs2[i] != nil || !sameResult(res2[i], want) {
			t.Errorf("rerun cell %d: res=%v err=%v", i, res2[i], errs2[i])
		}
	}
}
