package sim

import (
	"context"
	"testing"

	"ilp/internal/cache"
	"ilp/internal/isa"
	"ilp/internal/machine"
)

var machineCacheConfig = cache.Config{Name: "bench", Lines: 256, LineWords: 4, MissPenalty: 12}

// tightLoop builds a program executing roughly n dynamic instructions.
func tightLoop(n int64) *isa.Program {
	b := isa.NewBuilder()
	b.Li(isa.R(10), n/6)
	b.Li(isa.R(11), 0)
	b.Label("loop")
	b.Op(isa.OpAdd, isa.R(11), isa.R(11), isa.R(10))
	b.Imm(isa.OpAddi, isa.R(12), isa.R(11), 3)
	b.Op(isa.OpXor, isa.R(13), isa.R(12), isa.R(11))
	b.Imm(isa.OpAddi, isa.R(10), isa.R(10), -1)
	b.Branch(isa.OpBgt, isa.R(10), isa.RZero, "loop")
	b.Print(isa.R(13))
	b.Halt()
	return b.MustFinish()
}

// stitchedLoop builds a hot loop that crosses a jump seam and carries a
// mid-trace side exit, so the replay path must stitch a multi-block
// superblock (body -> j -> test -> back-edge) instead of specializing a
// single-block back-edge trace.
func stitchedLoop(n int64) *isa.Program {
	b := isa.NewBuilder()
	b.Li(isa.R(10), n/7)
	b.Li(isa.R(11), 0)
	b.Li(isa.R(14), 40) // early-out threshold, rarely hit
	b.Jump("test")
	b.Label("body")
	b.Op(isa.OpAdd, isa.R(11), isa.R(11), isa.R(10))
	b.Imm(isa.OpAddi, isa.R(12), isa.R(11), 3)
	b.Branch(isa.OpBlt, isa.R(10), isa.R(14), "skip") // side exit
	b.Op(isa.OpXor, isa.R(13), isa.R(12), isa.R(11))
	b.Label("skip")
	b.Imm(isa.OpAddi, isa.R(10), isa.R(10), -1)
	b.Jump("test") // seam: the superblock stitches through to the test block
	b.Label("test")
	b.Branch(isa.OpBgt, isa.R(10), isa.RZero, "body")
	b.Print(isa.R(13))
	b.Halt()
	return b.MustFinish()
}

// BenchmarkSimulatorThroughput measures simulated instructions per second
// on the base machine (the inner loop of every experiment in this repo).
func BenchmarkSimulatorThroughput(b *testing.B) {
	p := tightLoop(600_000)
	cfg := machine.Base()
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		r, err := Run(p, Options{Machine: cfg})
		if err != nil {
			b.Fatal(err)
		}
		instrs += r.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkSimulatorWideMachine: the superscalar path exercises the unit
// and width bookkeeping harder.
func BenchmarkSimulatorWideMachine(b *testing.B) {
	p := tightLoop(600_000)
	cfg := machine.IdealSuperscalar(8)
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		r, err := Run(p, Options{Machine: cfg})
		if err != nil {
			b.Fatal(err)
		}
		instrs += r.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkSimulatorWithCaches adds I/D cache modeling.
func BenchmarkSimulatorWithCaches(b *testing.B) {
	p := tightLoop(600_000)
	cfg := machine.MultiTitan()
	cfg.ICache = &machineCacheConfig
	dc := machineCacheConfig
	cfg.DCache = &dc
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		r, err := Run(p, Options{Machine: cfg})
		if err != nil {
			b.Fatal(err)
		}
		instrs += r.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkSimulatorPredecodedBase runs from a shared predecoded Code, so
// the loop body replays its precomputed static schedule instead of walking
// the scoreboard — the fast path the experiments runner hits after its
// per-(program, schedule) predecode.
func BenchmarkSimulatorPredecodedBase(b *testing.B) {
	p := tightLoop(600_000)
	cfg := machine.Base()
	code, err := Predecode(p, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		r, err := Run(p, Options{Machine: cfg, Code: code})
		if err != nil {
			b.Fatal(err)
		}
		instrs += r.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkSimulatorPredecodedWide is the predecoded+replay path on a wide
// ideal machine.
func BenchmarkSimulatorPredecodedWide(b *testing.B) {
	p := tightLoop(600_000)
	cfg := machine.IdealSuperscalar(8)
	code, err := Predecode(p, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		r, err := Run(p, Options{Machine: cfg, Code: code})
		if err != nil {
			b.Fatal(err)
		}
		instrs += r.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkSimulatorSuperblock replays a multi-block stitched superblock (a
// loop whose trace crosses a jump seam and holds a guarded side exit) on a
// wide machine from shared predecoded Code — the trace-specialization path
// this repo's sweep spends its time in.
func BenchmarkSimulatorSuperblock(b *testing.B) {
	p := stitchedLoop(600_000)
	cfg := machine.IdealSuperscalar(4)
	code, err := Predecode(p, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if code.Superblocks() == 0 {
		b.Fatal("no superblock traces formed")
	}
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		r, err := Run(p, Options{Machine: cfg, Code: code})
		if err != nil {
			b.Fatal(err)
		}
		instrs += r.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkSimulatorCondTrace replays a profile-specialized superblock: the
// hot arm of the loop's conditional branch is stitched through behind an
// inverted-condition guard, so whole iterations spin inside one trace where
// the unspecialized engine splits each at the branch and re-enters per
// block. The profile comes from the same budgeted pre-run the experiments
// runner performs at compile time.
func BenchmarkSimulatorCondTrace(b *testing.B) {
	p := condTraceLoop(85_000) // ~600k dynamic instructions
	cfg := machine.IdealSuperscalar(4)
	code, err := Predecode(p, cfg)
	if err != nil {
		b.Fatal(err)
	}
	prof, err := NewEngine().Profile(context.Background(), code, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	spec := code.Specialize(prof)
	if spec.CondTraces() == 0 {
		b.Fatal("no conditional-branch traces specialized")
	}
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		r, err := Run(p, Options{Machine: cfg, Code: spec})
		if err != nil {
			b.Fatal(err)
		}
		instrs += r.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkSimulatorEngineReuse drives a dedicated Engine through RunInto
// with a reused Result — the zero-allocation steady state a long measurement
// sweep reaches once the pool is warm.
func BenchmarkSimulatorEngineReuse(b *testing.B) {
	p := tightLoop(600_000)
	cfg := machine.Base()
	e := NewEngine()
	var res Result
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		if err := e.RunInto(p, Options{Machine: cfg}, &res); err != nil {
			b.Fatal(err)
		}
		instrs += res.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkSimulatorShortRunReuse drives one Engine through many short runs,
// each storing to a global at the bottom of the arena and pushing a stack
// frame at the top — the shape of every compiled benchmark. Each Reset must
// clear only what the previous run stored to; a single dirty interval would
// span the whole default arena and make every run pay a 16 MB clear.
func BenchmarkSimulatorShortRunReuse(b *testing.B) {
	bld := isa.NewBuilder()
	g := bld.Data(0)
	bld.Imm(isa.OpAddi, isa.RSP, isa.RSP, -4) // push a frame
	bld.Li(isa.R(10), 40)
	bld.Label("loop")
	bld.Store(isa.OpSw, isa.R(10), isa.RSP, 1)
	bld.Load(isa.OpLw, isa.R(11), isa.RZero, g)
	bld.Op(isa.OpAdd, isa.R(11), isa.R(11), isa.R(10))
	bld.Store(isa.OpSw, isa.R(11), isa.RZero, g)
	bld.Imm(isa.OpAddi, isa.R(10), isa.R(10), -1)
	bld.Branch(isa.OpBgt, isa.R(10), isa.RZero, "loop")
	bld.Print(isa.R(11))
	bld.Halt()
	p := bld.MustFinish()
	cfg := machine.Base()
	e := NewEngine()
	var res Result
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		if err := e.RunInto(p, Options{Machine: cfg}, &res); err != nil {
			b.Fatal(err)
		}
		instrs += res.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}
