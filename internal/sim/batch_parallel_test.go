package sim

// Tests for the sharded (multi-worker) batch scheduler. Sharding is pure
// scheduling: a Batch run across N workers must produce results DeepEqual
// to the serial batch (itself bit-identical to individual runs), isolate
// per-cell errors to their cell, and honor cancellation and instruction
// limits with the serial semantics. The whole package runs under -race in
// `make check` (race-concurrency), so these also prove the shards share
// no mutable state.

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"ilp/internal/isa"
	"ilp/internal/machine"
)

// TestBatchParallelMatchesSerial pins the sharded scheduler to the serial
// one: same cells, DeepEqual results, across worker counts that divide the
// cells evenly and unevenly (more workers than cells included).
func TestBatchParallelMatchesSerial(t *testing.T) {
	runs := batchCells(t)
	want, wantErrs := NewBatchWorkers(1).Run(context.Background(), runs)
	for _, workers := range []int{2, 3, 4, len(runs) + 5} {
		b := NewBatchWorkers(workers)
		got, errs := b.Run(context.Background(), runs)
		if s := b.Shards(); s != min(workers, len(runs)) {
			t.Errorf("workers=%d: used %d shards, want %d", workers, s, min(workers, len(runs)))
		}
		for i := range runs {
			if (errs[i] == nil) != (wantErrs[i] == nil) {
				t.Errorf("workers=%d cell %d: error mismatch: %v vs %v", workers, i, errs[i], wantErrs[i])
				continue
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("workers=%d cell %d (%s): sharded result diverged from serial",
					workers, i, runs[i].Opts.Machine.Name)
			}
		}
	}
}

// TestBatchParallelCellError pins per-cell error isolation across shards: a
// faulting cell reports the same error an individual run would, and every
// sibling — in its own shard and in others — completes unharmed.
func TestBatchParallelCellError(t *testing.T) {
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
		{Prog: tightLoop(900), Opts: Options{Machine: machine.IdealSuperscalar(2)}},
	}
	results, errs := NewBatchWorkers(4).Run(context.Background(), runs)

	_, werr := Run(bad, runs[1].Opts)
	if werr == nil {
		t.Fatal("individual run of the faulting program did not fail")
	}
	if errs[1] == nil || errs[1].Error() != werr.Error() {
		t.Errorf("faulting cell error = %v, want %v", errs[1], werr)
	}
	for _, i := range []int{0, 2, 3} {
		want, _ := Run(runs[i].Prog, runs[i].Opts)
		if errs[i] != nil {
			t.Errorf("cell %d: unexpected error: %v", i, errs[i])
		} else if !reflect.DeepEqual(results[i], want) {
			t.Errorf("cell %d: result diverged from individual run", i)
		}
	}
}

// TestBatchParallelLimitOneCell gives exactly one cell an instruction
// budget it must exceed: the trip lands in that cell alone — its shard
// keeps running its other cells, and no other shard is disturbed.
func TestBatchParallelLimitOneCell(t *testing.T) {
	runs := []BatchRun{
		{Prog: tightLoop(200_000), Opts: Options{Machine: machine.Base()}},
		{Prog: tightLoop(200_000), Opts: Options{Machine: machine.Base(), MaxInstructions: 1000}},
		{Prog: tightLoop(200_000), Opts: Options{Machine: machine.IdealSuperscalar(4)}},
		{Prog: tightLoop(600), Opts: Options{Machine: machine.Base()}},
	}
	results, errs := NewBatchWorkers(2).Run(context.Background(), runs)
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "instruction limit") {
		t.Errorf("budgeted cell: want instruction-limit error, got %v", errs[1])
	}
	if results[1] != nil {
		t.Error("budgeted cell: result must be nil on error")
	}
	for _, i := range []int{0, 2, 3} {
		if errs[i] != nil {
			t.Errorf("cell %d: unexpected error: %v", i, errs[i])
		} else if results[i] == nil {
			t.Errorf("cell %d: missing result", i)
		}
	}
}

// TestBatchParallelCancelMidShard cancels while every shard is mid-flight:
// long cells split across workers, cancel fired from outside after the
// batch is underway. Every cell must settle exactly one way — a completed
// result or a cancellation error — and a rerun of the same batch must
// complete clean (the shard engines recover from an abandoned run).
func TestBatchParallelCancelMidShard(t *testing.T) {
	runs := []BatchRun{
		{Prog: tightLoop(80_000_000), Opts: Options{Machine: machine.Base()}},
		{Prog: tightLoop(80_000_000), Opts: Options{Machine: machine.Base()}},
		{Prog: tightLoop(80_000_000), Opts: Options{Machine: machine.IdealSuperscalar(4)}},
		{Prog: tightLoop(80_000_000), Opts: Options{Machine: machine.IdealSuperscalar(2)}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	b := NewBatchWorkers(4)
	results, errs := b.Run(ctx, runs)
	cancelled := 0
	for i := range runs {
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
		t.Skip("batch completed before cancellation; nothing to assert")
	}
	// The shard engines must be reusable after an abandoned run.
	short := []BatchRun{
		{Prog: tightLoop(600), Opts: Options{Machine: machine.Base()}},
		{Prog: tightLoop(600), Opts: Options{Machine: machine.IdealSuperscalar(2)}},
	}
	res2, errs2 := b.Run(context.Background(), short)
	for i := range short {
		if errs2[i] != nil || res2[i] == nil {
			t.Errorf("rerun cell %d: res=%v err=%v", i, res2[i], errs2[i])
		}
	}
}
