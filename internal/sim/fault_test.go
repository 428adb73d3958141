package sim

import (
	"testing"

	"ilp/internal/cache"
	"ilp/internal/isa"
	"ilp/internal/machine"
)

// faultLoop builds a program that runs a counted loop of n iterations
// (r10 counts down from n; the body sees r10 after its decrement, so the
// last iteration sees 0) and then runs tail. body may fault on that last
// iteration: by then the loop body has replayed as a trace on every
// earlier taken back-edge, so the fault fires from inside the replay.
func faultLoop(n int64, body, tail func(b *isa.Builder)) *isa.Program {
	b := isa.NewBuilder()
	b.Li(isa.R(10), n)
	b.Li(isa.R(12), 100)
	b.Li(isa.R(14), 10)
	b.Fli(isa.F(3), 1e18)
	b.Label("loop")
	b.Imm(isa.OpAddi, isa.R(10), isa.R(10), -1)
	if body != nil {
		body(b)
	}
	b.Branch(isa.OpBgt, isa.R(10), isa.RZero, "loop")
	tail(b)
	return b.MustFinish()
}

func halt(b *isa.Builder) { b.Halt() }

// TestFaultParity pins every runtime fault to the reference engine's exact
// error, on every way a run can execute: the plain run (whose loop replays
// as a trace, so in-loop faults fire from the trace µop executor), the
// shared-Code run, the hooked run, and the cached run (both interpreting
// every instruction).
func TestFaultParity(t *testing.T) {
	cases := []struct {
		name    string
		prog    *isa.Program
		inTrace bool // the fault fires inside the replayed loop body
	}{
		{"div-by-zero", faultLoop(8, func(b *isa.Builder) {
			b.Op(isa.OpDiv, isa.R(11), isa.R(12), isa.R(10))
		}, halt), true},
		{"rem-by-zero", faultLoop(8, func(b *isa.Builder) {
			b.Op(isa.OpRem, isa.R(11), isa.R(12), isa.R(10))
		}, halt), true},
		{"cvtfi-overflow", faultLoop(8, func(b *isa.Builder) {
			// (10 - r10) * 1e18 passes 9.3e18 only once r10 reaches 0.
			b.Op(isa.OpSub, isa.R(13), isa.R(14), isa.R(10))
			b.Op1(isa.OpCvtif, isa.F(1), isa.R(13))
			b.Op(isa.OpFmul, isa.F(2), isa.F(1), isa.F(3))
			b.Op1(isa.OpCvtfi, isa.R(11), isa.F(2))
		}, halt), true},
		{"load-out-of-range", faultLoop(8, func(b *isa.Builder) {
			b.Imm(isa.OpAddi, isa.R(13), isa.R(10), -1)
			b.Load(isa.OpLw, isa.R(11), isa.R(13), 0)
		}, halt), true},
		{"store-out-of-range", faultLoop(8, func(b *isa.Builder) {
			b.Imm(isa.OpAddi, isa.R(13), isa.R(10), -1)
			b.Store(isa.OpSw, isa.R(12), isa.R(13), 0)
		}, halt), true},
		{"jr-out-of-range", faultLoop(8, nil, func(b *isa.Builder) {
			b.Li(isa.R(15), 1000)
			b.Emit(isa.Instr{Op: isa.OpJr, Dst: isa.NoReg, Src1: isa.R(15), Src2: isa.NoReg})
		}), false},
		{"fall-off-end", faultLoop(8, func(b *isa.Builder) {
			b.Op(isa.OpXor, isa.R(11), isa.R(12), isa.R(10))
		}, func(b *isa.Builder) {}), false},
	}

	cfg := machine.IdealSuperscalar(4)
	cached := machine.IdealSuperscalar(4)
	cached.Name = "superscalar-4-cached"
	cached.ICache = &cache.Config{Name: "fault-i", Lines: 16, LineWords: 2, MissPenalty: 5}
	cached.DCache = &cache.Config{Name: "fault-d", Lines: 16, LineWords: 2, MissPenalty: 7}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.prog
			_, refErr := refRun(p, Options{Machine: cfg})
			if refErr == nil {
				t.Fatal("reference engine did not fault")
			}
			want := refErr.Error()
			check := func(path string, err error) {
				t.Helper()
				switch {
				case err == nil:
					t.Errorf("%s: no error, want %q", path, want)
				case err.Error() != want:
					t.Errorf("%s: error %q, want %q", path, err, want)
				}
			}

			e := NewEngine()
			var res Result
			check("plain", e.RunInto(p, Options{Machine: cfg}, &res))
			if tc.inTrace && e.replays == 0 {
				t.Error("plain: the loop never replayed, so the fault did not fire from a trace")
			}

			code, err := Predecode(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, err = Run(p, Options{Machine: cfg, Code: code})
			check("shared-code", err)

			_, err = Run(p, Options{Machine: cfg, OnIssue: func(int, *isa.Instr, int64, int64) {}})
			check("hooked", err)

			if _, refErr := refRun(p, Options{Machine: cached}); refErr == nil || refErr.Error() != want {
				t.Fatalf("reference engine with caches: %v, want %q", refErr, want)
			}
			_, err = Run(p, Options{Machine: cached})
			check("cached", err)
		})
	}
}
