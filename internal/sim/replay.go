package sim

import (
	"fmt"
	"math"

	"ilp/internal/isa"
	"ilp/internal/machine"
	"ilp/internal/statictime"
)

// replayMinLen is the smallest trace worth replaying: below it the
// precondition scan and bulk writeback cost about as much as the
// per-instruction issue steps they replace.
const replayMinLen = 3

// Step kinds of a traceSched, mirroring statictime.TraceStepKind.
const (
	stepCond      = uint8(statictime.StepCond)
	stepJump      = uint8(statictime.StepJump)
	stepEnd       = uint8(statictime.StepEnd)
	stepCondTaken = uint8(statictime.StepCondTaken)
)

// uopEnd terminates a trace's micro-op stream: leave through exit aux (the
// final fallthrough). It extends the architectural opcode space the same way
// the predecoder's sentinel opOutOfRange does.
const uopEnd = isa.Opcode(isa.NumOpcodes + 1)

// regSink is the scratch register index micro-ops write when the
// architectural destination is the hardwired zero: e.regs is 256 wide (only
// isa.NumRegs are architectural), so the store lands harmlessly and the
// executor needs no per-write r0 branch.
const regSink = isa.Reg(255)

// uop is one micro-op of a trace's flattened semantic stream: the whole
// multi-block trace — straight-line bodies, guarded side exits, stitched
// jump seams (which vanish entirely: their timing lives in the per-exit
// offsets, their counter bumps in traceExit.jumps) — executes as a single
// dense 16-byte-per-op loop with no step walking and no per-segment calls.
// Timing was proven statically; micro-ops only move values.
type uop struct {
	op  isa.Opcode // architectural opcode, or uopEnd
	dst isa.Reg    // destination (r0 remapped to regSink)
	s1  isa.Reg
	s2  isa.Reg
	// aux is the exit index for branch micro-ops and uopEnd, and the
	// original pc for micro-ops that can fault (div, rem, loads, stores,
	// cvtfi) so error messages match the per-instruction path exactly.
	aux int32
	// imm is the architectural immediate; for fli it holds the float
	// constant's bit pattern.
	imm int64
}

// traceStep is one segment of a superblock trace: the straight-line
// instructions [lo, hi) followed by the control event at hi. Steps exist for
// cross-checking the analyzer against the predecoder (traceMatchesCode) and
// for tests; execution runs off the flattened uops.
type traceStep struct {
	lo, hi int32
	kind   uint8
	exit   int32 // exit index for stepCond / stepEnd
	target int32 // jump destination for stepJump
}

// traceJump is one in-trace unconditional jump's block-counter bookkeeping.
type traceJump struct {
	at, target int32
}

// traceExit is one way control leaves a trace: the exact cumulative timing
// advance, relative to the entry slot s = barrier, of the n instructions
// executed when the run leaves here (see statictime.TraceExit).
type traceExit struct {
	at     int32 // taken branch pc (side exits), -1 for the fallthrough
	target int32 // pc the engine resumes at
	taken  bool
	stable bool // taken back-edge to the trace start, precondition self-renewing
	n      int64
	// Bulk timing advance.
	cycleAdv     int64
	inCycle      int64
	groups       int64
	widthStalls  int64 // internal stalls (first instruction's are dynamic)
	branchStalls int64
	dataStalls   int64
	writeStalls  int64
	maxComplete  int64
	barrierOff   int64
	writes       []statictime.RegWrite
	jumps        []traceJump // in-trace jumps passed before this exit
}

// traceSched is the engine-ready form of a statictime superblock trace: a
// chain of straight-line segments stitched across block seams (unconditional
// jumps) with guarded side exits at each conditional branch, whose timing —
// for every possible exit — was proven exact by the static analyzer.
//
// Validity at runtime needs exactly two facts the engine checks on entry:
// the barrier is a fresh taken-branch barrier (barrier > cycle, so the first
// trace instruction issues exactly at the barrier), and every register the
// trace touches has scoreboard time ≤ barrier (checkRegs). Everything else
// was proven static: every trace instruction issues to a unit the predecoder
// elides (fUnit clear), so no lane is scanned or booked and the relative
// issue offsets cannot depend on entry state; in-trace jump barriers are
// folded into the per-exit offsets.
type traceSched struct {
	uops      []uop
	steps     []traceStep
	exits     []traceExit
	checkRegs []isa.Reg
	blocks    int // block segments covered; >1 means a stitched superblock
}

// buildScheds converts the analyzer's proven superblock traces into
// per-leader replay entries, indexed by pc over len(dec) (so the sentinel pc
// indexes safely; its entry is nil). Only machines whose taken branches end
// their issue group qualify: the trace entry condition (a fresh taken-branch
// barrier) exists only under that discipline — statictime.Traces returns nil
// for the rest.
func buildScheds(p *isa.Program, cfg *machine.Config, dec []decoded) []*traceSched {
	return buildSchedsProf(p, cfg, dec, nil)
}

// buildSchedsProf is buildScheds under an optional execution profile:
// conditional branches the profile marks likely-taken continue their traces
// along the taken edge, guarded by an inverted-condition micro-op whose
// firing (a mispath) falls back to the block interpreter at the branch's
// fallthrough. A nil profile builds exactly the unspecialized schedules.
func buildSchedsProf(p *isa.Program, cfg *machine.Config, dec []decoded, prof *statictime.Profile) []*traceSched {
	traces, err := statictime.ProfiledTraces(p, cfg, prof)
	if err != nil || traces == nil {
		return nil // p and cfg are pre-validated; analysis cannot fail
	}
	var out []*traceSched
	for start, t := range traces {
		if t == nil || t.Exits[len(t.Exits)-1].N < replayMinLen {
			continue
		}
		// Cross-check the analyzer's conflict-freedom proof against the
		// predecoder's own unit-elision facts; any disagreement (there can
		// be none — both apply the same rule) drops the trace rather than
		// risking a lane booking the replay would skip. The control shape
		// is re-verified too: segments must be straight-line, cond steps
		// must sit on a conditional branch, jump steps on an unconditional
		// jump, all with matching targets.
		if !traceMatchesCode(t, p, dec) {
			continue
		}
		uops := buildUops(t, dec)
		if uops == nil {
			continue // an op outside the micro-op set (cannot happen)
		}
		ts := &traceSched{
			uops:      uops,
			steps:     make([]traceStep, len(t.Steps)),
			exits:     make([]traceExit, len(t.Exits)),
			checkRegs: t.CheckRegs,
			blocks:    t.Blocks,
		}
		for i, st := range t.Steps {
			ts.steps[i] = traceStep{
				lo: int32(st.Lo), hi: int32(st.Hi),
				kind: uint8(st.Kind), exit: int32(st.Exit), target: int32(st.Target),
			}
		}
		for i, ex := range t.Exits {
			te := traceExit{
				at: int32(ex.At), target: int32(ex.Target),
				taken: ex.Taken, stable: ex.Stable, n: ex.N,
				cycleAdv: ex.CycleAdv, inCycle: ex.InCycle, groups: ex.Groups,
				widthStalls: ex.WidthStalls, branchStalls: ex.BranchStalls,
				dataStalls: ex.DataStalls, writeStalls: ex.WriteStalls,
				maxComplete: ex.MaxComplete, barrierOff: ex.BarrierOff,
				writes: ex.Writes,
			}
			if len(ex.Jumps) > 0 {
				te.jumps = make([]traceJump, 0, len(ex.Jumps))
			}
			for _, j := range ex.Jumps {
				te.jumps = append(te.jumps, traceJump{at: int32(j.At), target: int32(j.Target)})
			}
			ts.exits[i] = te
		}
		if out == nil {
			out = make([]*traceSched, len(dec))
		}
		out[start] = ts
	}
	return out
}

// traceMatchesCode re-derives, from the predecoded program alone, the facts
// the trace replay relies on. A mismatch means the analyzer and predecoder
// disagree about the program — impossible by construction, but a dropped
// trace only costs speed while a wrong one corrupts timing.
func traceMatchesCode(t *statictime.Trace, p *isa.Program, dec []decoded) bool {
	n := len(dec) - 1 // drop the sentinel
	for _, st := range t.Steps {
		if st.Lo < 0 || st.Hi < st.Lo || st.Hi > n {
			return false
		}
		for j := st.Lo; j < st.Hi; j++ {
			if dec[j].flags&fUnit != 0 || dec[j].op.Info().Branch || dec[j].op == isa.OpHalt {
				return false
			}
		}
		switch statictime.TraceStepKind(st.Kind) {
		case statictime.StepCond:
			if st.Hi >= n || !condBranch(dec[st.Hi].op) || dec[st.Hi].flags&fUnit != 0 {
				return false
			}
			ex := &t.Exits[st.Exit]
			if ex.At != st.Hi || ex.Target != int(dec[st.Hi].target) {
				return false
			}
		case statictime.StepCondTaken:
			if st.Hi >= n || !condBranch(dec[st.Hi].op) || dec[st.Hi].flags&fUnit != 0 ||
				st.Target != int(dec[st.Hi].target) {
				return false
			}
			ex := &t.Exits[st.Exit]
			if ex.At != st.Hi || ex.Target != st.Hi+1 || ex.Taken {
				return false
			}
		case statictime.StepJump:
			if st.Hi >= n || dec[st.Hi].op != isa.OpJ || dec[st.Hi].flags&fUnit != 0 ||
				st.Target != int(dec[st.Hi].target) {
				return false
			}
		case statictime.StepEnd:
			if t.Exits[st.Exit].Target != st.Hi {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// buildUops flattens a verified trace into its micro-op stream: each
// segment's instructions in order (nops dropped, r0 destinations remapped to
// the sink), each conditional branch as a guard micro-op carrying its exit,
// jumps elided entirely, and a terminal uopEnd for the final fallthrough.
// Returns nil if any instruction falls outside the executor's switch.
func buildUops(t *statictime.Trace, dec []decoded) []uop {
	// Exact-size bound: every segment instruction plus one control micro-op
	// per non-jump step (dropped nops only leave slack capacity).
	n := 0
	for _, st := range t.Steps {
		n += st.Hi - st.Lo
		if st.Kind != statictime.StepJump {
			n++
		}
	}
	out := make([]uop, 0, n)
	for _, st := range t.Steps {
		for j := st.Lo; j < st.Hi; j++ {
			d := &dec[j]
			u := uop{op: d.op, dst: d.dst, s1: d.src1, s2: d.src2, aux: int32(j), imm: d.imm}
			switch d.op {
			case isa.OpNop:
				continue
			case isa.OpAdd, isa.OpAddi, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpRem,
				isa.OpSlt, isa.OpSle, isa.OpSeq, isa.OpSne,
				isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpAndi, isa.OpOri, isa.OpXori,
				isa.OpSll, isa.OpSrl, isa.OpSra, isa.OpSlli, isa.OpSrli, isa.OpSrai,
				isa.OpLi, isa.OpMov, isa.OpFmov,
				isa.OpLw, isa.OpLf, isa.OpCvtfi,
				isa.OpFslt, isa.OpFsle, isa.OpFseq, isa.OpFsne:
				// Integer-file destination: honor the hardwired zero by
				// diverting the write to the sink slot.
				if u.dst == isa.RZero {
					u.dst = regSink
				}
			case isa.OpFli:
				u.imm = int64(math.Float64bits(d.fimm))
			case isa.OpFadd, isa.OpFsub, isa.OpFneg, isa.OpFabs, isa.OpFmul, isa.OpFdiv,
				isa.OpCvtif, isa.OpFsqrt, isa.OpFsin, isa.OpFcos, isa.OpFatn,
				isa.OpFexp, isa.OpFlog,
				isa.OpSw, isa.OpSf, isa.OpPrinti, isa.OpPrintf:
				// Float destinations never alias r0; stores and prints have
				// no register destination.
			default:
				return nil
			}
			out = append(out, u)
		}
		switch statictime.TraceStepKind(st.Kind) {
		case statictime.StepCond:
			d := &dec[st.Hi]
			out = append(out, uop{op: d.op, s1: d.src1, s2: d.src2, aux: int32(st.Exit)})
		case statictime.StepCondTaken:
			// Specialized guard: the trace continues on the taken edge, so
			// the micro-op tests the inverted condition — firing exactly when
			// the architectural branch is untaken — and leaves through the
			// untaken side exit. traceExecU needs no new cases.
			d := &dec[st.Hi]
			out = append(out, uop{op: invertBranch(d.op), s1: d.src1, s2: d.src2, aux: int32(st.Exit)})
		case statictime.StepEnd:
			out = append(out, uop{op: uopEnd, aux: int32(st.Exit)})
		}
	}
	if len(out) == 0 || out[len(out)-1].op != uopEnd {
		return nil
	}
	return out
}

// invertBranch returns the conditional branch opcode testing the negated
// condition (beq↔bne, blt↔bge, ble↔bgt). Non-branches return unchanged.
func invertBranch(op isa.Opcode) isa.Opcode {
	switch op {
	case isa.OpBeq:
		return isa.OpBne
	case isa.OpBne:
		return isa.OpBeq
	case isa.OpBlt:
		return isa.OpBge
	case isa.OpBge:
		return isa.OpBlt
	case isa.OpBle:
		return isa.OpBgt
	case isa.OpBgt:
		return isa.OpBle
	}
	return op
}

// traceExecU runs a trace's micro-op stream against live register and memory
// state and returns the index of the exit the run left through. The cases
// mirror exec's non-control cases exactly — including error messages and
// dirty-memory tracking — so a replayed run is indistinguishable from an
// instruction-by-instruction one, error exits included. The timing advance
// was precomputed per exit and is applied in bulk by the caller; this loop
// only moves values.
func (e *Engine) traceExecU(uops []uop) (int, error) {
	mem := e.mem
	memLen := int64(len(mem))
	regs := &e.regs
	for i := 0; ; i++ {
		u := &uops[i]
		switch u.op {
		case isa.OpAdd:
			regs[u.dst] = regs[u.s1] + regs[u.s2]
		case isa.OpAddi:
			regs[u.dst] = regs[u.s1] + u.imm
		case isa.OpSub:
			regs[u.dst] = regs[u.s1] - regs[u.s2]
		case isa.OpMul:
			regs[u.dst] = regs[u.s1] * regs[u.s2]
		case isa.OpDiv:
			dv := regs[u.s2]
			if dv == 0 {
				return 0, fmt.Errorf("sim: pc %d (%s): integer division by zero", u.aux, &e.prog.Instrs[u.aux])
			}
			regs[u.dst] = regs[u.s1] / dv
		case isa.OpRem:
			dv := regs[u.s2]
			if dv == 0 {
				return 0, fmt.Errorf("sim: pc %d (%s): integer remainder by zero", u.aux, &e.prog.Instrs[u.aux])
			}
			regs[u.dst] = regs[u.s1] % dv
		case isa.OpSlt:
			regs[u.dst] = b2i(regs[u.s1] < regs[u.s2])
		case isa.OpSle:
			regs[u.dst] = b2i(regs[u.s1] <= regs[u.s2])
		case isa.OpSeq:
			regs[u.dst] = b2i(regs[u.s1] == regs[u.s2])
		case isa.OpSne:
			regs[u.dst] = b2i(regs[u.s1] != regs[u.s2])
		case isa.OpAnd:
			regs[u.dst] = regs[u.s1] & regs[u.s2]
		case isa.OpOr:
			regs[u.dst] = regs[u.s1] | regs[u.s2]
		case isa.OpXor:
			regs[u.dst] = regs[u.s1] ^ regs[u.s2]
		case isa.OpAndi:
			regs[u.dst] = regs[u.s1] & u.imm
		case isa.OpOri:
			regs[u.dst] = regs[u.s1] | u.imm
		case isa.OpXori:
			regs[u.dst] = regs[u.s1] ^ u.imm
		case isa.OpSll:
			regs[u.dst] = regs[u.s1] << (uint64(regs[u.s2]) & 63)
		case isa.OpSrl:
			regs[u.dst] = int64(uint64(regs[u.s1]) >> (uint64(regs[u.s2]) & 63))
		case isa.OpSra:
			regs[u.dst] = regs[u.s1] >> (uint64(regs[u.s2]) & 63)
		case isa.OpSlli:
			regs[u.dst] = regs[u.s1] << (uint64(u.imm) & 63)
		case isa.OpSrli:
			regs[u.dst] = int64(uint64(regs[u.s1]) >> (uint64(u.imm) & 63))
		case isa.OpSrai:
			regs[u.dst] = regs[u.s1] >> (uint64(u.imm) & 63)
		case isa.OpLi, isa.OpFli:
			regs[u.dst] = u.imm
		case isa.OpMov, isa.OpFmov:
			regs[u.dst] = regs[u.s1]
		case isa.OpLw, isa.OpLf:
			memAddr := regs[u.s1] + u.imm
			if memAddr < 0 || memAddr >= memLen {
				return 0, fmt.Errorf("sim: pc %d (%s): address %d out of range", u.aux, &e.prog.Instrs[u.aux], memAddr)
			}
			regs[u.dst] = mem[memAddr]
		case isa.OpSw, isa.OpSf:
			memAddr := regs[u.s1] + u.imm
			if memAddr < 0 || memAddr >= memLen {
				return 0, fmt.Errorf("sim: pc %d (%s): address %d out of range", u.aux, &e.prog.Instrs[u.aux], memAddr)
			}
			mem[memAddr] = regs[u.s2]
			e.markStore(int(memAddr))
		case isa.OpFadd:
			e.setRegF(u.dst, e.regF(u.s1)+e.regF(u.s2))
		case isa.OpFsub:
			e.setRegF(u.dst, e.regF(u.s1)-e.regF(u.s2))
		case isa.OpFneg:
			e.setRegF(u.dst, -e.regF(u.s1))
		case isa.OpFabs:
			e.setRegF(u.dst, math.Abs(e.regF(u.s1)))
		case isa.OpFmul:
			e.setRegF(u.dst, e.regF(u.s1)*e.regF(u.s2))
		case isa.OpFdiv:
			e.setRegF(u.dst, e.regF(u.s1)/e.regF(u.s2))
		case isa.OpCvtif:
			e.setRegF(u.dst, float64(regs[u.s1]))
		case isa.OpCvtfi:
			f := e.regF(u.s1)
			if math.IsNaN(f) || f >= 9.3e18 || f <= -9.3e18 {
				return 0, fmt.Errorf("sim: pc %d (%s): float-to-int overflow (%g)", u.aux, &e.prog.Instrs[u.aux], f)
			}
			regs[u.dst] = int64(f)
		case isa.OpFslt:
			regs[u.dst] = b2i(e.regF(u.s1) < e.regF(u.s2))
		case isa.OpFsle:
			regs[u.dst] = b2i(e.regF(u.s1) <= e.regF(u.s2))
		case isa.OpFseq:
			regs[u.dst] = b2i(e.regF(u.s1) == e.regF(u.s2))
		case isa.OpFsne:
			regs[u.dst] = b2i(e.regF(u.s1) != e.regF(u.s2))
		case isa.OpFsqrt:
			e.setRegF(u.dst, math.Sqrt(e.regF(u.s1)))
		case isa.OpFsin:
			e.setRegF(u.dst, math.Sin(e.regF(u.s1)))
		case isa.OpFcos:
			e.setRegF(u.dst, math.Cos(e.regF(u.s1)))
		case isa.OpFatn:
			e.setRegF(u.dst, math.Atan(e.regF(u.s1)))
		case isa.OpFexp:
			e.setRegF(u.dst, math.Exp(e.regF(u.s1)))
		case isa.OpFlog:
			e.setRegF(u.dst, math.Log(e.regF(u.s1)))
		case isa.OpPrinti:
			e.output = append(e.output, isa.IntValue(regs[u.s1]))
		case isa.OpPrintf:
			e.output = append(e.output, isa.FloatValue(e.regF(u.s1)))
		case isa.OpBeq:
			if regs[u.s1] == regs[u.s2] {
				return int(u.aux), nil
			}
		case isa.OpBne:
			if regs[u.s1] != regs[u.s2] {
				return int(u.aux), nil
			}
		case isa.OpBlt:
			if regs[u.s1] < regs[u.s2] {
				return int(u.aux), nil
			}
		case isa.OpBge:
			if regs[u.s1] >= regs[u.s2] {
				return int(u.aux), nil
			}
		case isa.OpBle:
			if regs[u.s1] <= regs[u.s2] {
				return int(u.aux), nil
			}
		case isa.OpBgt:
			if regs[u.s1] > regs[u.s2] {
				return int(u.aux), nil
			}
		case uopEnd:
			return int(u.aux), nil
		default:
			// Unreachable: buildUops admits only the opcodes above.
			return 0, fmt.Errorf("sim: trace micro-op with unimplemented opcode %v", u.op)
		}
	}
}
