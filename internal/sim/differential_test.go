package sim

// Differential equivalence suite: every golden benchmark, compiled per
// machine configuration, is simulated with the preserved seed engine
// (reference_test.go) and with this engine — plainly (replaying traces
// where the machine qualifies) and with a no-op OnIssue hook installed
// (which turns replay off, so every instruction is interpreted) — and all
// observable results must be bit-identical. This is the proof that the
// performance rewrite changed no semantics and no timing.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ilp/internal/benchmarks"
	"ilp/internal/cache"
	"ilp/internal/compiler"
	"ilp/internal/isa"
	"ilp/internal/machine"
	"ilp/internal/statictime"
)

// diffMachines is the machine matrix: scalar base, ideal superscalar at
// three widths (unit multiplicity and width bookkeeping), a superpipeline
// (latency scaling and branch barriers), and MultiTitan with both caches
// (fetch and data-miss modeling, with trace replay off).
func diffMachines() []*machine.Config {
	titan := machine.MultiTitan()
	titan.Name = "titan-cached"
	titan.ICache = &cache.Config{Name: "diff-i", Lines: 256, LineWords: 4, MissPenalty: 12}
	titan.DCache = &cache.Config{Name: "diff-d", Lines: 128, LineWords: 4, MissPenalty: 20}
	return []*machine.Config{
		machine.Base(),
		machine.IdealSuperscalar(2),
		machine.IdealSuperscalar(4),
		machine.IdealSuperscalar(8),
		machine.Superpipelined(4),
		titan,
	}
}

func compareResults(t *testing.T, path string, want, got *Result) {
	t.Helper()
	if got.Machine != want.Machine {
		t.Errorf("%s: Machine = %q, want %q", path, got.Machine, want.Machine)
	}
	if got.Instructions != want.Instructions {
		t.Errorf("%s: Instructions = %d, want %d", path, got.Instructions, want.Instructions)
	}
	if got.IssueGroups != want.IssueGroups {
		t.Errorf("%s: IssueGroups = %d, want %d", path, got.IssueGroups, want.IssueGroups)
	}
	if got.MinorCycles != want.MinorCycles {
		t.Errorf("%s: MinorCycles = %d, want %d", path, got.MinorCycles, want.MinorCycles)
	}
	if got.BaseCycles != want.BaseCycles {
		t.Errorf("%s: BaseCycles = %g, want %g", path, got.BaseCycles, want.BaseCycles)
	}
	if got.ClassCounts != want.ClassCounts {
		t.Errorf("%s: ClassCounts = %v, want %v", path, got.ClassCounts, want.ClassCounts)
	}
	if got.Stalls != want.Stalls {
		t.Errorf("%s: Stalls = %+v, want %+v", path, got.Stalls, want.Stalls)
	}
	if len(got.Output) != len(want.Output) {
		t.Errorf("%s: %d output values, want %d", path, len(got.Output), len(want.Output))
	} else {
		for i := range want.Output {
			if !sameValue(got.Output[i], want.Output[i]) {
				t.Errorf("%s: Output[%d] = %v, want %v", path, i, got.Output[i], want.Output[i])
				break
			}
		}
	}
	switch {
	case (got.ICacheStats == nil) != (want.ICacheStats == nil):
		t.Errorf("%s: ICacheStats presence = %v, want %v", path, got.ICacheStats != nil, want.ICacheStats != nil)
	case got.ICacheStats != nil && *got.ICacheStats != *want.ICacheStats:
		t.Errorf("%s: ICacheStats = %+v, want %+v", path, *got.ICacheStats, *want.ICacheStats)
	}
	switch {
	case (got.DCacheStats == nil) != (want.DCacheStats == nil):
		t.Errorf("%s: DCacheStats presence = %v, want %v", path, got.DCacheStats != nil, want.DCacheStats != nil)
	case got.DCacheStats != nil && *got.DCacheStats != *want.DCacheStats:
		t.Errorf("%s: DCacheStats = %+v, want %+v", path, *got.DCacheStats, *want.DCacheStats)
	}
}

// sameValue is bit-exact output equality: unlike ==, it tells -0 from +0
// apart and holds a NaN equal only to a NaN with the same bits.
func sameValue(a, b isa.Value) bool {
	return a.IsFloat == b.IsFloat && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// sameResult is reflect.DeepEqual with the outputs compared by sameValue,
// so a result that printed a NaN equals a bit-identical one.
func sameResult(a, b *Result) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.Output) != len(b.Output) {
		return false
	}
	for i := range a.Output {
		if !sameValue(a.Output[i], b.Output[i]) {
			return false
		}
	}
	ac, bc := *a, *b
	ac.Output, bc.Output = nil, nil
	return reflect.DeepEqual(&ac, &bc)
}

// compareCounts pins the per-instruction counters folded from the block
// enter/exit counters: a run that replays traces (which book whole traces'
// counters at once) and one that interprets every instruction must agree
// index by index.
func compareCounts(t *testing.T, path string, want, got *Result) {
	t.Helper()
	if len(got.InstrCounts) != len(want.InstrCounts) {
		t.Fatalf("%s: %d InstrCounts, want %d", path, len(got.InstrCounts), len(want.InstrCounts))
	}
	for i := range want.InstrCounts {
		if got.InstrCounts[i] != want.InstrCounts[i] {
			t.Errorf("%s: InstrCounts[%d] = %d, want %d", path, i, got.InstrCounts[i], want.InstrCounts[i])
			break
		}
	}
	for i := range want.TakenExits {
		if got.TakenExits[i] != want.TakenExits[i] {
			t.Errorf("%s: TakenExits[%d] = %d, want %d", path, i, got.TakenExits[i], want.TakenExits[i])
			break
		}
	}
}

// checkStaticBounds is the cross-check oracle inlined into the differential
// suite: the simulated minor cycles must satisfy the static timing analyzer's
// lower and upper bounds computed from the run's own dynamic counts.
func checkStaticBounds(t *testing.T, p *isa.Program, cfg *machine.Config, r *Result) {
	t.Helper()
	a, err := statictime.Analyze(p, cfg)
	if err != nil {
		t.Fatalf("statictime: %v", err)
	}
	lo := a.LowerBound(r.InstrCounts, r.TakenExits)
	hi := a.UpperBound(r.InstrCounts)
	if lo > r.MinorCycles || r.MinorCycles > hi {
		t.Errorf("%s: %d minor cycles outside static bounds [%d, %d]", cfg.Name, r.MinorCycles, lo, hi)
	}
}

// randomCFGProgram generates a deterministic random control-flow graph: a
// handful of basic blocks full of random work, calls into a straight-line
// subroutine (jr return — mid-block entry for the block counters), and
// data-dependent conditional branches between arbitrary blocks. The work
// covers every opcode of the engine's semantic switches: integer ALU ops
// (register and immediate shifts included), division and remainder behind
// a divisor forced odd (ori d, r, 1), address-masked integer and float
// loads and stores into a small data segment, the float file (fli, fmov,
// arithmetic, the special functions, compares into integer registers),
// int↔float conversion (cvtfi only of a cvtif result, so it never traps),
// printi/printf mid-block, and nop. Termination is guaranteed by a fuel
// counter burned at every block entry; when it runs out the block bails to
// the exit, which prints every data register of both files (so the
// differential comparison covers architectural state, not just timing).
func randomCFGProgram(rng *rand.Rand) *isa.Program {
	const (
		loData, hiData = 10, 20 // data registers the random ops touch
		rFuel          = 21
		rAddr          = 22
		rDiv           = 23
		loF, hiF       = 10, 15 // float data registers
	)
	reg := func() isa.Reg { return isa.R(loData + rng.Intn(hiData-loData+1)) }
	freg := func() isa.Reg { return isa.F(loF + rng.Intn(hiF-loF+1)) }

	b := isa.NewBuilder()
	words := make([]int64, 64)
	for i := range words {
		words[i] = rng.Int63n(1 << 24)
	}
	dataBase := b.Data(words...)

	b.Li(isa.R(rFuel), int64(150+rng.Intn(150)))
	for r := loData; r <= hiData; r++ {
		b.Li(isa.R(r), rng.Int63n(1<<20)-(1<<19))
	}
	for r := loF; r <= hiF; r++ {
		b.Fli(isa.F(r), rng.NormFloat64()*100)
	}
	b.Jump("b0")

	// A tiny leaf subroutine: blocks call it through jal, and the jr return
	// lands mid-stream wherever the caller sat — the case the block-entry
	// accounting must get right.
	b.Label("sub")
	b.Op(isa.OpXor, reg(), reg(), reg())
	b.Imm(isa.OpAddi, reg(), reg(), rng.Int63n(64))
	b.Ret()

	// One emitter per opcode (cvtfi rides on a cvtif, so it never traps),
	// drawn from a shuffled deck so every opcode turns up in every few
	// blocks instead of at its share of a weighted pick.
	mask := func() isa.Reg {
		b.Imm(isa.OpAndi, isa.R(rAddr), reg(), 63)
		return isa.R(rAddr)
	}
	var gens []func()
	for _, o := range []isa.Opcode{
		isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpSlt, isa.OpSle, isa.OpSeq, isa.OpSne, isa.OpMul,
		isa.OpSll, isa.OpSrl, isa.OpSra,
	} {
		gens = append(gens, func() { b.Op(o, reg(), reg(), reg()) })
	}
	for _, o := range []isa.Opcode{isa.OpAddi, isa.OpAndi, isa.OpOri, isa.OpXori} {
		gens = append(gens, func() { b.Imm(o, reg(), reg(), rng.Int63n(1<<16)) })
	}
	for _, o := range []isa.Opcode{isa.OpSlli, isa.OpSrli, isa.OpSrai} {
		gens = append(gens, func() { b.Imm(o, reg(), reg(), rng.Int63n(64)) })
	}
	for _, o := range []isa.Opcode{isa.OpDiv, isa.OpRem} {
		gens = append(gens, func() {
			b.Imm(isa.OpOri, isa.R(rDiv), reg(), 1)
			b.Op(o, reg(), reg(), isa.R(rDiv))
		})
	}
	for _, o := range []isa.Opcode{isa.OpFadd, isa.OpFsub, isa.OpFmul, isa.OpFdiv} {
		gens = append(gens, func() { b.Op(o, freg(), freg(), freg()) })
	}
	for _, o := range []isa.Opcode{
		isa.OpFmov, isa.OpFneg, isa.OpFabs, isa.OpFsqrt,
		isa.OpFsin, isa.OpFcos, isa.OpFatn, isa.OpFexp, isa.OpFlog,
	} {
		gens = append(gens, func() { b.Op1(o, freg(), freg()) })
	}
	for _, o := range []isa.Opcode{isa.OpFslt, isa.OpFsle, isa.OpFseq, isa.OpFsne} {
		gens = append(gens, func() { b.Op(o, reg(), freg(), freg()) })
	}
	gens = append(gens,
		func() { b.Li(reg(), rng.Int63n(1<<30)) },
		func() { b.Op1(isa.OpMov, reg(), reg()) },
		func() { b.Fli(freg(), rng.NormFloat64()*1e3) },
		func() { b.Op1(isa.OpCvtif, freg(), reg()) },
		func() {
			f := freg()
			b.Op1(isa.OpCvtif, f, reg())
			b.Op1(isa.OpCvtfi, reg(), f)
		},
		func() { b.Load(isa.OpLw, reg(), mask(), dataBase) },
		func() { b.Store(isa.OpSw, reg(), mask(), dataBase) },
		func() { b.Load(isa.OpLf, freg(), mask(), dataBase) },
		func() { b.Store(isa.OpSf, freg(), mask(), dataBase) },
		func() { b.Print(reg()) },
		func() { b.PrintF(freg()) },
		func() { b.Emit(isa.Instr{Op: isa.OpNop, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg}) },
	)
	var deck []int
	draw := func() {
		if len(deck) == 0 {
			deck = rng.Perm(len(gens))
		}
		gens[deck[0]]()
		deck = deck[1:]
	}
	condOps := []isa.Opcode{
		isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBle, isa.OpBgt,
	}

	nBlocks := 3 + rng.Intn(6)
	for blk := 0; blk < nBlocks; blk++ {
		b.Label(fmt.Sprintf("b%d", blk))
		b.Imm(isa.OpAddi, isa.R(rFuel), isa.R(rFuel), -1)
		b.Branch(isa.OpBle, isa.R(rFuel), isa.RZero, "exit")
		for op := 2 + rng.Intn(9); op > 0; op-- {
			draw()
		}
		if rng.Intn(4) == 0 {
			b.Call("sub")
		}
		b.Branch(condOps[rng.Intn(len(condOps))], reg(), reg(),
			fmt.Sprintf("b%d", rng.Intn(nBlocks)))
		b.Jump(fmt.Sprintf("b%d", rng.Intn(nBlocks)))
	}

	b.Label("exit")
	for r := loData; r <= hiData; r++ {
		b.Print(isa.R(r))
	}
	for r := loF; r <= hiF; r++ {
		b.PrintF(isa.F(r))
	}
	b.Halt()
	return b.MustFinish()
}

// fuzzMachines is diffMachines plus the configurations whose functional
// units really bind (multiplicity below the issue width, or issue latency
// above one) — the generated programs must agree there too, since those are
// exactly the paths the predecoded fUnit flag decides to keep or skip.
func fuzzMachines() []*machine.Config {
	return append(diffMachines(),
		machine.SuperscalarWithConflicts(4),
		machine.Underpipelined(),
	)
}

// checkRandomCFG runs one generated program on cfg every way the engine can
// run it and holds each to the preserved seed engine: cycles, stalls, class
// counts, and printed output must be bit-identical for the plain run (trace
// replay on where the machine qualifies), the shared-predecode run, the
// hooked run (replay off), and the counted runs, whose per-instruction
// counters must agree and satisfy the static timing bounds.
func checkRandomCFG(t *testing.T, p *isa.Program, cfg *machine.Config) {
	t.Helper()
	opts := Options{Machine: cfg}
	want, err := refRun(p, opts)
	if err != nil {
		t.Fatalf("%s: reference engine: %v", cfg.Name, err)
	}
	run := func(path string, opts Options) *Result {
		t.Helper()
		got, err := Run(p, opts)
		if err != nil {
			t.Fatalf("%s: %s run: %v", cfg.Name, path, err)
		}
		compareResults(t, cfg.Name+"/"+path, want, got)
		return got
	}
	run("plain", opts)

	code, err := Predecode(p, cfg)
	if err != nil {
		t.Fatalf("%s: predecode: %v", cfg.Name, err)
	}
	copts := opts
	copts.Code = code
	run("shared-code", copts)

	hopts := opts
	hopts.OnIssue = func(int, *isa.Instr, int64, int64) {}
	run("hooked", hopts)

	// Counted runs: CountInstrs must not perturb timing, the replaying and
	// the hooked run's counters must agree, and the static bounds oracle
	// must hold for the measured cycle count.
	copts.CountInstrs = true
	hopts.CountInstrs = true
	fastC := run("counted-shared-code", copts)
	hookC := run("counted-hooked", hopts)
	compareCounts(t, cfg.Name+"/counted", fastC, hookC)
	checkStaticBounds(t, p, cfg, fastC)
}

// randomCFGSeeds is the number of generator seeds plain `go test` checks.
func randomCFGSeeds() int {
	if testing.Short() {
		return 4
	}
	return 16
}

// TestDifferentialRandomCFG checks the fixed generator seeds, one subtest
// per seed and machine.
func TestDifferentialRandomCFG(t *testing.T) {
	cfgs := fuzzMachines()
	for seed := 0; seed < randomCFGSeeds(); seed++ {
		p := randomCFGProgram(rand.New(rand.NewSource(int64(seed))))
		for _, cfg := range cfgs {
			t.Run(fmt.Sprintf("seed%d/%s", seed, cfg.Name), func(t *testing.T) {
				checkRandomCFG(t, p, cfg)
			})
		}
	}
}

// FuzzDifferentialRandomCFG is the same check driven by the fuzzer: each
// input is a generator seed, run on every fuzz machine. The seed corpus is
// the fixed seeds above; inputs the fuzzer found failing are committed
// under testdata/fuzz and replay on every plain `go test`.
//
//	go test -run '^$' -fuzz FuzzDifferentialRandomCFG -fuzztime 60s ./internal/sim/
func FuzzDifferentialRandomCFG(f *testing.F) {
	for seed := 0; seed < randomCFGSeeds(); seed++ {
		f.Add(int64(seed))
	}
	cfgs := fuzzMachines()
	f.Fuzz(func(t *testing.T, seed int64) {
		p := randomCFGProgram(rand.New(rand.NewSource(seed)))
		for _, cfg := range cfgs {
			checkRandomCFG(t, p, cfg)
		}
	})
}

// TestSharedCodeConcurrent proves the immutability contract: one predecoded
// Code backing many concurrent runs (as the experiments runner does across
// sweep workers) must produce the reference result from every goroutine.
// Run under -race this also proves no engine writes the shared artifact.
func TestSharedCodeConcurrent(t *testing.T) {
	p := randomCFGProgram(rand.New(rand.NewSource(99)))
	cfg := machine.IdealSuperscalar(4)
	want, err := refRun(p, Options{Machine: cfg})
	if err != nil {
		t.Fatalf("reference engine: %v", err)
	}
	code, err := Predecode(p, cfg)
	if err != nil {
		t.Fatalf("predecode: %v", err)
	}

	const workers, runs = 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, workers*runs)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				got, err := Run(p, Options{Machine: cfg, Code: code})
				if err != nil {
					errs <- fmt.Errorf("shared-code run: %v", err)
					return
				}
				if got.MinorCycles != want.MinorCycles || got.Stalls != want.Stalls ||
					got.ClassCounts != want.ClassCounts {
					errs <- fmt.Errorf("shared-code run diverged: cycles %d want %d",
						got.MinorCycles, want.MinorCycles)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestDifferentialEngines(t *testing.T) {
	suite := benchmarks.All()
	cfgs := diffMachines()
	if testing.Short() {
		cfgs = []*machine.Config{cfgs[0], cfgs[len(cfgs)-1]}
	}
	for _, b := range suite {
		for _, cfg := range cfgs {
			t.Run(b.Name+"/"+cfg.Name, func(t *testing.T) {
				c, err := compiler.Compile(b.Source, compiler.Options{
					Machine: cfg, Level: compiler.O4, Unroll: b.DefaultUnroll,
				})
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				opts := Options{Machine: cfg}
				want, err := refRun(c.Prog, opts)
				if err != nil {
					t.Fatalf("reference engine: %v", err)
				}

				// Plain run: trace replay wherever the machine qualifies
				// (a machine with caches interprets every instruction).
				got, err := Run(c.Prog, opts)
				if err != nil {
					t.Fatalf("plain run: %v", err)
				}
				compareResults(t, "plain", want, got)

				// Hooked run: a no-op hook turns replay off.
				iopts := opts
				iopts.OnIssue = func(int, *isa.Instr, int64, int64) {}
				got, err = Run(c.Prog, iopts)
				if err != nil {
					t.Fatalf("hooked run: %v", err)
				}
				compareResults(t, "hooked", want, got)

				// Static bounds oracle on the real benchmark programs.
				copts := opts
				copts.CountInstrs = true
				counted, err := Run(c.Prog, copts)
				if err != nil {
					t.Fatalf("counted run: %v", err)
				}
				compareResults(t, "counted", want, counted)
				checkStaticBounds(t, c.Prog, cfg, counted)
			})
		}
	}
}

// TestRandomCFGCoversOpcodes keeps the generator honest: across the full
// set of fixed seeds, every opcode must execute at least once, so each case
// of the engine's semantic switches meets the reference engine.
func TestRandomCFGCoversOpcodes(t *testing.T) {
	var n [isa.NumOpcodes]int64
	for seed := 0; seed < 16; seed++ {
		p := randomCFGProgram(rand.New(rand.NewSource(int64(seed))))
		r, err := Run(p, Options{Machine: machine.IdealSuperscalar(4), CountInstrs: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, c := range r.InstrCounts {
			n[p.Instrs[i].Op] += c
		}
	}
	for op, c := range n {
		if c == 0 {
			t.Errorf("opcode %v never executes", isa.Opcode(op))
		}
	}
}
