package sim

// Directed tests for conditional-branch trace specialization: traces that
// continue past a profiled likely-taken branch behind an inverted-condition
// guard. Each test forces a specific shape — a specialized hot arm, a guard
// firing (mispath fallback), a deliberately wrong profile, a while-shaped
// loop whose stitched fallthrough is a stable back-edge — and cross-checks
// timing and class mixes against the reference (seed) engine. A profile may
// only ever choose which traces exist; these tests pin that it never bends
// timing.

import (
	"context"
	"testing"

	"ilp/internal/isa"
	"ilp/internal/machine"
	"ilp/internal/statictime"
)

// checkSpecialized profiles p, specializes its Code, and runs it on every
// sbMachine against the reference engine, requiring identical timing and
// class mixes, at least minCond specialized traces, and at least minMispath
// guard exits (0 to allow none).
func checkSpecialized(t *testing.T, p *isa.Program, prof *statictime.Profile, minCond int, minMispath int64) {
	t.Helper()
	for _, cfg := range sbMachines() {
		code, err := Predecode(p, cfg)
		if err != nil {
			t.Fatalf("%s: predecode: %v", cfg.Name, err)
		}
		pr := prof
		if pr == nil {
			if pr, err = NewEngine().Profile(context.Background(), code, 0, 0); err != nil {
				t.Fatalf("%s: profile run: %v", cfg.Name, err)
			}
		}
		spec := code.Specialize(pr)
		if got := spec.CondTraces(); got < minCond {
			t.Errorf("%s: %d specialized traces, want >= %d", cfg.Name, got, minCond)
		}
		want, err := refRun(p, Options{Machine: cfg})
		if err != nil {
			t.Fatalf("%s: reference run: %v", cfg.Name, err)
		}
		e := NewEngine()
		var got Result
		if err := e.RunInto(p, Options{Machine: cfg, Code: spec}, &got); err != nil {
			t.Fatalf("%s: specialized run: %v", cfg.Name, err)
		}
		if e.Mispaths() < minMispath {
			t.Errorf("%s: %d mispath exits, want >= %d", cfg.Name, e.Mispaths(), minMispath)
		}
		if got.MinorCycles != want.MinorCycles || got.IssueGroups != want.IssueGroups ||
			got.Instructions != want.Instructions || got.Stalls != want.Stalls {
			t.Errorf("%s: timing diverged:\n got %+v\nwant %+v", cfg.Name, got, want)
		}
		if got.ClassCounts != want.ClassCounts {
			t.Errorf("%s: class counts diverged:\n got %v\nwant %v", cfg.Name, got.ClassCounts, want.ClassCounts)
		}
		if len(got.Output) != len(want.Output) {
			t.Errorf("%s: output length diverged: %d vs %d", cfg.Name, len(got.Output), len(want.Output))
		}
	}
}

// condTraceLoop is a loop whose body branches to a hot arm taken on all but
// the last few iterations: the profile marks the branch likely-taken, the
// specialized trace follows the hot arm, and the final iterations leave
// through the mispath guard.
func condTraceLoop(n int64) *isa.Program {
	b := isa.NewBuilder()
	b.Li(isa.R(10), n) // countdown
	b.Li(isa.R(11), 0) // accumulator
	b.Li(isa.R(12), 5) // cold-arm threshold
	b.Label("loop")
	b.Imm(isa.OpAddi, isa.R(11), isa.R(11), 1)
	b.Branch(isa.OpBgt, isa.R(10), isa.R(12), "hot") // taken until the last 5
	b.Imm(isa.OpAddi, isa.R(11), isa.R(11), 7)       // cold arm
	b.Jump("join")
	b.Label("hot")
	b.Op(isa.OpXor, isa.R(13), isa.R(11), isa.R(10))
	b.Imm(isa.OpAddi, isa.R(11), isa.R(11), 2)
	b.Label("join")
	b.Imm(isa.OpAddi, isa.R(10), isa.R(10), -1)
	b.Branch(isa.OpBgt, isa.R(10), isa.RZero, "loop")
	b.Print(isa.R(11))
	b.Halt()
	return b.MustFinish()
}

// TestCondTraceSpecializedLoop pins the whole pipeline: Profile observes
// the hot-arm branch taken on nearly every iteration, Specialize stitches
// the trace through its taken edge, the replay spins on the hot path, and
// the cold iterations at the end fire the guard — all bit-identical to the
// reference engine.
func TestCondTraceSpecializedLoop(t *testing.T) {
	checkSpecialized(t, condTraceLoop(2000), nil, 1, 1)
}

// TestCondTraceUnspecializedHasNone pins the control: without a profile the
// same program qualifies no specialized trace, and the profile-free Code
// still matches the reference.
func TestCondTraceUnspecializedHasNone(t *testing.T) {
	p := condTraceLoop(2000)
	for _, cfg := range sbMachines() {
		code, err := Predecode(p, cfg)
		if err != nil {
			t.Fatalf("%s: predecode: %v", cfg.Name, err)
		}
		if got := code.CondTraces(); got != 0 {
			t.Errorf("%s: unspecialized Code reports %d cond traces", cfg.Name, got)
		}
	}
	checkAgainstReference(t, p, 10)
}

// TestCondTraceWrongProfile feeds Specialize a deliberately wrong profile —
// a branch taken on half its executions marked likely-taken — and requires
// the run to stay bit-identical anyway: a bad profile costs guard exits,
// never timing. The alternating branch fires the guard on every other
// iteration.
func TestCondTraceWrongProfile(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(isa.R(10), 1200)
	b.Li(isa.R(11), 0)
	b.Label("loop")
	b.Imm(isa.OpAndi, isa.R(12), isa.R(10), 1)
	b.Branch(isa.OpBeq, isa.R(12), isa.RZero, "even") // taken every other iteration
	b.Imm(isa.OpAddi, isa.R(11), isa.R(11), 3)
	b.Label("even")
	b.Imm(isa.OpAddi, isa.R(11), isa.R(11), 1)
	b.Imm(isa.OpAddi, isa.R(10), isa.R(10), -1)
	b.Branch(isa.OpBgt, isa.R(10), isa.RZero, "loop")
	b.Print(isa.R(11))
	b.Halt()
	p := b.MustFinish()

	// Hand-build the wrong profile: every pc "executed" often, every
	// conditional branch "always taken".
	n := len(p.Instrs)
	prof := &statictime.Profile{Count: make([]int64, n), Taken: make([]int64, n)}
	for i := range p.Instrs {
		prof.Count[i] = 1 << 20
		if condBranch(p.Instrs[i].Op) {
			prof.Taken[i] = 1 << 20
		}
	}
	checkSpecialized(t, p, prof, 1, 100)
}

// TestCondTraceStableWhileLoop pins the generalized stable rule without any
// profile: a while-shaped loop (test at the top, body, unconditional jump
// back) builds a trace whose final fallthrough exit is a stitched-seam
// back-edge to its own start — stable, so iterations spin with no register
// re-check, exactly like a do-while's taken side exit.
func TestCondTraceStableWhileLoop(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(isa.R(10), 3000)
	b.Li(isa.R(11), 0)
	b.Label("loop")
	b.Branch(isa.OpBle, isa.R(10), isa.RZero, "done")
	b.Op(isa.OpAdd, isa.R(11), isa.R(11), isa.R(10))
	b.Op(isa.OpXor, isa.R(12), isa.R(11), isa.R(10))
	b.Imm(isa.OpAddi, isa.R(10), isa.R(10), -1)
	b.Jump("loop")
	b.Label("done")
	b.Print(isa.R(11))
	b.Halt()
	p := b.MustFinish()

	code, err := Predecode(p, machine.Base())
	if err != nil {
		t.Fatalf("predecode: %v", err)
	}
	stableFall := false
	for _, tr := range code.scheds {
		if tr == nil {
			continue
		}
		for _, ex := range tr.exits {
			if ex.stable && !ex.taken {
				stableFall = true
			}
		}
	}
	if !stableFall {
		t.Error("no stable fallthrough exit on the while-shaped loop trace")
	}
	checkAgainstReference(t, p, 1000)
}

// TestCondTraceSpecializedStableSpin closes the loop between the two
// features: a do-while body whose hot-arm branch is specialized AND whose
// back-edge keeps the stable spin, so the replay must spin through a trace
// containing a guard micro-op and still leave through the guard at the end —
// the spin's early-break path (a different exit firing mid-spin).
func TestCondTraceSpecializedStableSpin(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(isa.R(10), 4000)
	b.Li(isa.R(11), 0)
	b.Li(isa.R(12), 3)
	b.Label("loop")
	b.Imm(isa.OpAddi, isa.R(11), isa.R(11), 1)
	b.Branch(isa.OpBgt, isa.R(10), isa.R(12), "cont") // taken until the last 3
	b.Imm(isa.OpAddi, isa.R(11), isa.R(11), 11)       // cold tail arm
	b.Label("cont")
	b.Imm(isa.OpAddi, isa.R(10), isa.R(10), -1)
	b.Branch(isa.OpBgt, isa.R(10), isa.RZero, "loop")
	b.Print(isa.R(11))
	b.Halt()
	checkSpecialized(t, b.MustFinish(), nil, 1, 1)
}
