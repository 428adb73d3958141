package sim

// Tests for the batched multi-cell scheduler: a Batch must produce results
// bit-identical to running every cell alone — running cells back to back on
// one reused engine per shard is pure scheduling, never timing.

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"ilp/internal/isa"
	"ilp/internal/machine"
)

// batchCells builds a mixed workload: several programs (tight loop, random
// CFGs) across the differential machine set, sharing predecoded Code within
// each (program, machine) cell as the experiments runner would.
func batchCells(t *testing.T) []BatchRun {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	progs := []*isa.Program{
		tightLoop(600),
		tightLoop(200_000), // long enough to pass several cancellation polls
		randomCFGProgram(rng),
		randomCFGProgram(rng),
	}
	var runs []BatchRun
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
			runs = append(runs, BatchRun{Prog: p, Opts: opts})
		}
	}
	return runs
}

func TestBatchBitIdentical(t *testing.T) {
	runs := batchCells(t)
	b := NewBatch()
	results, errs := b.Run(context.Background(), runs)
	for i, r := range runs {
		want, werr := Run(r.Prog, r.Opts)
		if werr != nil {
			t.Fatalf("cell %d: individual run failed: %v", i, werr)
		}
		if errs[i] != nil {
			t.Errorf("cell %d (%s): batch error: %v", i, r.Opts.Machine.Name, errs[i])
			continue
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Errorf("cell %d (%s): batched result diverged:\n got %+v\nwant %+v",
				i, r.Opts.Machine.Name, results[i], want)
		}
	}
}

func TestBatchReuse(t *testing.T) {
	runs := batchCells(t)
	b := NewBatch()
	first, errs1 := b.Run(context.Background(), runs)
	second, errs2 := b.Run(context.Background(), runs)
	for i := range runs {
		if errs1[i] != nil || errs2[i] != nil {
			t.Fatalf("cell %d: errors %v / %v", i, errs1[i], errs2[i])
		}
		if !reflect.DeepEqual(first[i], second[i]) {
			t.Errorf("cell %d: second batch run diverged", i)
		}
	}
}

// TestBatchCellError pins per-cell error isolation: a faulting cell reports
// the same error an individual run would, and its siblings complete
// unharmed.
func TestBatchCellError(t *testing.T) {
	bld := isa.NewBuilder()
	bld.Li(isa.R(1), 8)
	bld.Li(isa.R(2), 0)
	bld.Label("loop")
	bld.Imm(isa.OpAddi, isa.R(1), isa.R(1), -1)
	bld.Op(isa.OpDiv, isa.R(3), isa.R(2), isa.R(1)) // traps when r1 reaches 0
	bld.Branch(isa.OpBgt, isa.R(1), isa.RZero, "loop")
	bld.Print(isa.R(3))
	bld.Halt()
	bad := bld.MustFinish()

	runs := []BatchRun{
		{Prog: tightLoop(600), Opts: Options{Machine: machine.Base()}},
		{Prog: bad, Opts: Options{Machine: machine.Base()}},
		{Prog: tightLoop(600), Opts: Options{Machine: machine.IdealSuperscalar(4)}},
	}
	b := NewBatch()
	results, errs := b.Run(context.Background(), runs)

	if _, werr := Run(bad, runs[1].Opts); werr == nil {
		t.Fatal("individual run of the faulting program did not fail")
	} else if errs[1] == nil || errs[1].Error() != werr.Error() {
		t.Errorf("faulting cell error = %v, want %v", errs[1], werr)
	}
	for _, i := range []int{0, 2} {
		want, _ := Run(runs[i].Prog, runs[i].Opts)
		if errs[i] != nil {
			t.Errorf("cell %d: unexpected error: %v", i, errs[i])
		} else if !reflect.DeepEqual(results[i], want) {
			t.Errorf("cell %d: result diverged from individual run", i)
		}
	}
}

func TestBatchCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runs := []BatchRun{
		{Prog: tightLoop(600), Opts: Options{Machine: machine.Base()}},
		{Prog: tightLoop(600), Opts: Options{Machine: machine.IdealSuperscalar(2)}},
	}
	results, errs := NewBatch().Run(ctx, runs)
	for i := range runs {
		if errs[i] == nil || results[i] != nil {
			t.Errorf("cell %d: want cancellation error, got res=%v err=%v", i, results[i], errs[i])
		}
	}
}

// TestBatchEmpty runs a batch of zero cells: empty results, no shards, no
// panic, at any worker setting.
func TestBatchEmpty(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		b := NewBatchWorkers(workers)
		results, errs := b.Run(context.Background(), nil)
		if len(results) != 0 || len(errs) != 0 || b.Shards() != 0 {
			t.Errorf("workers=%d: got %d results, %d errors, %d shards; want none",
				workers, len(results), len(errs), b.Shards())
		}
	}
}

// TestBatchEnginesPerShard pins the memory bound: a batch holds one engine
// (one memory arena) per shard, min(workers, cells), not one per cell — and
// a later, smaller Run reuses them without growing the set.
func TestBatchEnginesPerShard(t *testing.T) {
	runs := batchCells(t)
	runs = append(runs, runs[:28-len(runs)]...)
	for _, workers := range []int{1, 2, 4} {
		b := NewBatchWorkers(workers)
		_, errs := b.Run(context.Background(), runs)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("workers=%d cell %d: %v", workers, i, err)
			}
		}
		if got, want := len(b.engines), min(workers, len(runs)); got != want {
			t.Errorf("workers=%d: batch holds %d engines after %d cells, want %d",
				workers, got, len(runs), want)
		}
		b.Run(context.Background(), runs[:1])
		if got, want := len(b.engines), min(workers, len(runs)); got != want {
			t.Errorf("workers=%d: one-cell rerun left %d engines, want %d", workers, got, want)
		}
	}
}
