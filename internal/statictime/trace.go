package statictime

// Superblock traces: the cross-block extension of the exact clean-entry
// schedules. A trace starts at a block leader and follows the straight-line
// continuation through unconditional jumps (the chain is stitched across the
// seam) and past conditional branches (each becomes a guarded side exit,
// untaken control falls through into the next block of the trace). Because
// every instruction on the trace issues to a conflict-free unit, the whole
// multi-block schedule is exact under the same clean-entry precondition as a
// single block's: the engine enters at a fresh taken-branch barrier s with
// every register the trace touches quiescent (scoreboard time ≤ s).
//
// The timing argument extends the single-block proof (DESIGN.md §6.4) with
// the in-trace barrier: an internal unconditional jump raises the issue
// barrier to its issue + latency + redirect, exactly as the engine's taken-
// transfer epilogue would, and every instruction after the seam is scheduled
// against that barrier. All quantities stay relative offsets from s, so one
// static walk yields, for every possible exit (each taken conditional, plus
// the final fallthrough), the exact cumulative instruction count, cycle
// advance, stall breakdown, scoreboard writes, and the barrier the engine
// holds after leaving — the engine applies whichever exit the run's data
// selects (see sim's trace replay).
//
// An exit that targets the trace's own start is a proven loop back-edge;
// when additionally the exit's barrier is still ahead of its cycle
// (BarrierOff > CycleAdv, automatic for taken exits) and every register
// written before the exit is ready by that barrier (Off ≤ BarrierOff), the
// re-entry precondition re-establishes itself and the exit is marked
// Stable: the engine may skip the per-register entry check on the next
// iteration entirely. This covers both the taken-side-exit back-edge of a
// do-while loop and the final fallthrough of a while-shaped trace whose
// stitched seam jumped back to the start.
//
// With an execution profile (ProfiledTraces), the walk also continues past
// conditional branches the profile marks likely-taken: the untaken
// direction becomes a guarded side exit and the taken edge is stitched
// like an unconditional jump's seam. The profile only selects which traces
// exist — a wrong or stale profile costs speed (mispath exits), never
// timing accuracy, because every exit's cumulative state is proven the
// same way.

import (
	"fmt"

	"ilp/internal/isa"
	"ilp/internal/machine"
)

// maxTraceLen caps the instructions a single trace may cover. Traces are
// built per leader at predecode time, so the cap bounds both build cost and
// the worst-case distance between two instruction-limit/cancellation polls
// in the replaying engine.
const maxTraceLen = 64

// TraceStepKind discriminates the three step forms of a trace walk.
type TraceStepKind uint8

const (
	// StepCond replays [Lo, Hi), then evaluates the conditional branch at
	// Hi: taken leaves through Exits[Exit], untaken falls through to the
	// next step (whose segment starts at Hi+1).
	StepCond TraceStepKind = iota
	// StepJump replays [Lo, Hi), then the unconditional jump at Hi
	// transfers to Target; the next step's segment starts there.
	StepJump
	// StepEnd replays [Lo, Hi), then leaves through Exits[Exit] (the final
	// fallthrough: the engine resumes per-instruction execution at the
	// exit's Target). Always the last step.
	StepEnd
	// StepCondTaken replays [Lo, Hi), then evaluates the conditional branch
	// at Hi, which the profile marked likely-taken: taken continues the
	// trace at Target (the branch's own target, stitched like a jump seam),
	// untaken leaves through Exits[Exit] — the specialized mirror image of
	// StepCond.
	StepCondTaken
)

// TraceStep is one segment of a trace: the straight-line instructions
// [Lo, Hi) followed by the control event at Hi (or, for StepEnd, none —
// Hi is where the walk stopped).
type TraceStep struct {
	Lo, Hi int
	Kind   TraceStepKind
	// Exit indexes Trace.Exits for StepCond (the taken side exit),
	// StepCondTaken (the untaken side exit) and StepEnd (the final
	// fallthrough exit).
	Exit int
	// Target is the jump destination for StepJump and the taken branch
	// target the trace continues at for StepCondTaken.
	Target int
}

// TraceExit is one way control can leave a trace, carrying the exact
// cumulative timing advance from the trace's entry slot s for the
// instructions executed up to (and including) the exit point.
type TraceExit struct {
	// At is the pc of the taken conditional branch for a side exit, -1 for
	// the final fallthrough exit.
	At int
	// Target is the pc the engine resumes at after this exit.
	Target int
	// Taken reports a taken control transfer: the engine bumps its block
	// counters (exit[At], enter[Target]) and the exit's BarrierOff includes
	// the branch's group-ending barrier.
	Taken bool
	// N is the number of instructions executed when leaving here.
	N int64
	// CycleAdv, InCycle and Groups describe the issue state at the exit:
	// the engine's cycle becomes s+CycleAdv, its in-cycle count InCycle,
	// and Groups issue groups were opened (including the entry group at s).
	CycleAdv, InCycle, Groups int64
	// WidthStalls, BranchStalls, DataStalls and WriteStalls are the stall
	// minor cycles accrued internally (instructions after the first; the
	// first instruction's entry stalls depend on dynamic state and are
	// accounted by the engine).
	WidthStalls, BranchStalls, DataStalls, WriteStalls int64
	// MaxComplete is the largest completion offset among the executed
	// instructions: lastComplete advances to max(lastComplete, s+MaxComplete).
	MaxComplete int64
	// BarrierOff is the issue barrier after the exit: the engine holds
	// barrier = s+BarrierOff (still a taken-branch barrier). For a taken
	// exit this includes the exiting branch's own barrier, so it always
	// exceeds CycleAdv; for the fallthrough exit it is the internal barrier
	// (0 when the trace crossed no jump seam).
	BarrierOff int64
	// Writes are the scoreboard times of every register written by the N
	// executed instructions, as offsets from s, ascending by register.
	Writes []RegWrite
	// Jumps lists the in-trace unconditional jumps executed before this
	// exit, in trace order: the engine bumps their block exit/enter
	// counters when it applies the exit (their timing effect — the raised
	// in-trace barrier — is already folded into the offsets above).
	Jumps []TraceJump
	// Stable marks a back-edge to the trace's own start that re-establishes
	// the clean-entry precondition by itself: the exit's barrier is still
	// ahead of its cycle (BarrierOff > CycleAdv) and every write is ready
	// by it (Off ≤ BarrierOff), so re-entry needs no register check.
	Stable bool
}

// TraceJump is one in-trace unconditional jump: the pc it leaves from and
// the pc it lands on (block counter bookkeeping only).
type TraceJump struct {
	At, Target int
}

// Trace is a superblock: an exact multi-block clean-entry schedule rooted at
// Start, valid on machines whose taken branches end their issue group. The
// precondition mirrors Schedule's: the engine must arrive behind a fresh
// taken-branch barrier s with every register in CheckRegs at scoreboard
// time ≤ s.
type Trace struct {
	Start int
	Steps []TraceStep
	Exits []TraceExit
	// CheckRegs lists every register any step reads or writes (r0 excluded,
	// ascending). Registers touched only after an early exit are included
	// too — checking them is conservative, never wrong.
	CheckRegs []isa.Reg
	// Blocks is the number of block segments the trace covers (one per
	// step): >1 means a genuine superblock stitched across seams.
	Blocks int
}

// Profile is an execution profile of a program: per-pc dynamic execution
// and taken-transfer counts, typically folded from a short instruction-
// budgeted pre-run's block counters (sim.Engine.Profile). The counts are
// architectural, so one profile is valid for every machine description —
// the execution path does not depend on timing.
type Profile struct {
	// Count[pc] is how many times the instruction at pc executed.
	Count []int64
	// Taken[pc] is how many times the control transfer at pc was taken.
	Taken []int64
}

// profileMinCount is the execution count below which a branch's profile is
// treated as noise: specializing a trace needs evidence.
const profileMinCount = 16

// LikelyTaken reports whether the conditional branch at pc was observed
// taken strongly enough — at least 3/4 of at least profileMinCount
// executions — to specialize a trace along its taken edge. Nil-safe: a nil
// profile marks nothing likely.
func (pr *Profile) LikelyTaken(pc int) bool {
	if pr == nil || pc >= len(pr.Count) || pc >= len(pr.Taken) {
		return false
	}
	c := pr.Count[pc]
	return c >= profileMinCount && pr.Taken[pc]*4 >= c*3
}

// Traces builds the superblock trace of every block leader: a slice indexed
// by pc, nil at non-leaders. Machines whose taken branches do not end their
// issue group return (nil, nil): the trace entry condition (a fresh taken-
// branch barrier) exists only under that discipline.
func Traces(p *isa.Program, cfg *machine.Config) ([]*Trace, error) {
	return ProfiledTraces(p, cfg, nil)
}

// ProfiledTraces is Traces guided by an optional execution profile:
// conditional branches the profile marks likely-taken continue the trace
// along their taken edge (StepCondTaken) instead of falling through. A nil
// profile builds exactly the unspecialized traces.
func ProfiledTraces(p *isa.Program, cfg *machine.Config, prof *Profile) ([]*Trace, error) {
	if cfg == nil {
		return nil, fmt.Errorf("statictime: no machine description")
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("statictime: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("statictime: %w", err)
	}
	if !cfg.TakenBranchEndsGroup {
		return nil, nil
	}

	unitOf, err := cfg.ClassUnits()
	if err != nil {
		return nil, fmt.Errorf("statictime: %w", err)
	}
	var binds [isa.NumClasses]bool
	for cl, ui := range unitOf {
		u := &cfg.Units[ui]
		binds[cl] = u.Multiplicity < cfg.IssueWidth || u.IssueLatency != 1
	}

	// Leaders, exactly as Analyze derives them: the entry, every direct
	// transfer target, every instruction after a transfer or halt, and the
	// program's own block list. The engine attempts a trace replay only at
	// taken-transfer targets, which this set covers.
	n := len(p.Instrs)
	leader := make([]bool, n)
	leader[0], leader[p.Entry] = true, true
	for _, b := range p.Blocks {
		if b >= 0 && b < n {
			leader[b] = true
		}
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		info := in.Op.Info()
		if info.Branch || in.Op == isa.OpHalt {
			if i+1 < n {
				leader[i+1] = true
			}
			if info.Branch && in.Op != isa.OpJr {
				leader[in.Target] = true
			}
		}
	}

	out := make([]*Trace, n)
	seen := make([]int32, n) // shared visited stamps: one allocation for all leaders
	for pc := 0; pc < n; pc++ {
		if leader[pc] {
			out[pc] = buildTrace(p, cfg, pc, &binds, prof, seen, int32(pc)+1)
		}
	}
	return out, nil
}

// isCondBranch reports whether op is a conditional branch.
func isCondBranch(op isa.Opcode) bool {
	switch op {
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBle, isa.OpBgt:
		return true
	}
	return false
}

// buildTrace walks the straight-line continuation from start, simulating the
// engine's issue discipline with all quantities relative to the entry slot
// (the first instruction issues at offset 0 — exactly the barrier, by the
// entry precondition). The walk stops at the first instruction that binds a
// functional unit, transfers control unpredictably (jal, jr), halts, was
// already traced (termination), or would exceed maxTraceLen. seen is the
// caller's shared visited buffer: seen[pc] == stamp marks pc as on this
// trace (stamps are unique per leader, so no clearing between builds).
func buildTrace(p *isa.Program, cfg *machine.Config, start int, binds *[isa.NumClasses]bool, prof *Profile, seen []int32, stamp int32) *Trace {
	n := len(p.Instrs)
	width := int64(cfg.IssueWidth)
	redirect := int64(cfg.BranchRedirect)

	tr := &Trace{Start: start}
	var avail [isa.NumRegs]int64
	var wrote, touched [isa.NumRegs]bool
	var cycle, inCycle, groups int64
	var widthS, branchS, dataS, writeS int64
	var maxComplete, barrierOff int64
	var count int64
	var nWrote int
	var jumps []TraceJump
	pos, segLo := start, start
	first := true

	// snapshot records one exit with the cumulative state at this point.
	snapshot := func(at, target int, taken bool, bOff int64) int {
		ex := TraceExit{
			At: at, Target: target, Taken: taken, N: count,
			CycleAdv: cycle, InCycle: inCycle, Groups: groups,
			WidthStalls: widthS, BranchStalls: branchS,
			DataStalls: dataS, WriteStalls: writeS,
			MaxComplete: maxComplete, BarrierOff: bOff,
		}
		if len(jumps) > 0 {
			ex.Jumps = append([]TraceJump(nil), jumps...)
		}
		// A back-edge is stable when re-entry lands behind a still-fresh
		// taken-branch barrier (bOff > cycle; every in-trace barrier comes
		// from a taken transfer) with every write ready by it. Taken side
		// exits always satisfy bOff > cycle (the branch's own barrier is
		// issue+lat+redirect, past its issue cycle); a fallthrough exit
		// satisfies it only if a stitched seam barrier is still ahead.
		stable := target == start && bOff > cycle
		if nWrote > 0 {
			ex.Writes = make([]RegWrite, 0, nWrote)
		}
		for r := 1; r < isa.NumRegs; r++ {
			if wrote[r] {
				ex.Writes = append(ex.Writes, RegWrite{Reg: isa.Reg(r), Off: avail[r]})
				if avail[r] > bOff {
					stable = false
				}
			}
		}
		ex.Stable = stable
		tr.Exits = append(tr.Exits, ex)
		return len(tr.Exits) - 1
	}

	for {
		if pos < 0 || pos >= n || seen[pos] == stamp || count >= maxTraceLen {
			break
		}
		in := &p.Instrs[pos]
		op := in.Op
		if binds[op.Class()] || op == isa.OpJal || op == isa.OpJr || op == isa.OpHalt {
			break
		}
		seen[pos] = stamp

		lat := int64(cfg.Latency[op.Class()])
		s1, s2, dst := effRegs(in)
		touched[s1], touched[s2] = true, true

		var issue int64
		if first {
			// Entry slot: issue is exactly the barrier (offset 0) by the
			// precondition; width/branch entry stalls are dynamic and
			// charged by the engine.
			inCycle, groups = 1, 1
			first = false
		} else {
			var over int64
			if inCycle >= width {
				over = 1
			}
			slot := cycle + over
			widthS += over
			if barrierOff > slot {
				// An in-trace jump barrier is always a taken-branch
				// barrier, so the engine books the wait as a branch stall.
				branchS += barrierOff - slot
				slot = barrierOff
			}
			issue = max(slot, avail[s1], avail[s2])
			dataS += issue - slot
			if dst != isa.NoReg {
				m := max(issue, avail[dst]-lat)
				writeS += m - issue
				issue = m
			}
			if issue > cycle {
				cycle = issue
				inCycle = 1
				groups++
			} else {
				inCycle++
			}
		}
		complete := issue + lat
		if dst != isa.NoReg {
			avail[dst] = complete
			if !wrote[dst] {
				nWrote++
			}
			wrote[dst], touched[dst] = true, true
		}
		maxComplete = max(maxComplete, complete)
		count++

		switch {
		case isCondBranch(op):
			if prof.LikelyTaken(pos) {
				// Specialized: the profile says this branch is almost always
				// taken, so the trace follows the taken edge. Untaken becomes
				// the guarded side exit — snapshotted before the seam barrier
				// and the jump bookkeeping, because an untaken branch neither
				// ends its issue group nor bumps block counters — and the
				// taken edge is stitched exactly like a jump seam.
				exit := snapshot(pos, pos+1, false, barrierOff)
				barrierOff = max(barrierOff, issue+lat+redirect)
				jumps = append(jumps, TraceJump{At: pos, Target: in.Target})
				tr.Steps = append(tr.Steps, TraceStep{Lo: segLo, Hi: pos, Kind: StepCondTaken, Exit: exit, Target: in.Target})
				segLo, pos = in.Target, in.Target
				continue
			}
			exit := snapshot(pos, in.Target, true, max(barrierOff, issue+lat+redirect))
			tr.Steps = append(tr.Steps, TraceStep{Lo: segLo, Hi: pos, Kind: StepCond, Exit: exit})
			segLo, pos = pos+1, pos+1
		case op == isa.OpJ:
			barrierOff = max(barrierOff, issue+lat+redirect)
			jumps = append(jumps, TraceJump{At: pos, Target: in.Target})
			tr.Steps = append(tr.Steps, TraceStep{Lo: segLo, Hi: pos, Kind: StepJump, Target: in.Target})
			segLo, pos = in.Target, in.Target
		default:
			pos++
		}
	}

	exit := snapshot(-1, pos, false, barrierOff)
	tr.Steps = append(tr.Steps, TraceStep{Lo: segLo, Hi: pos, Kind: StepEnd, Exit: exit})
	nTouched := 0
	for r := 1; r < isa.NumRegs; r++ { // r0 is never scoreboarded
		if touched[r] {
			nTouched++
		}
	}
	if nTouched > 0 {
		tr.CheckRegs = make([]isa.Reg, 0, nTouched)
		for r := 1; r < isa.NumRegs; r++ {
			if touched[r] {
				tr.CheckRegs = append(tr.CheckRegs, isa.Reg(r))
			}
		}
	}
	tr.Blocks = len(tr.Steps)
	return tr
}
