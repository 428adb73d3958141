package sim

// Tests for arena reuse: Reset zeroes only the bands the previous run made
// nonzero (the data segment, the stores below the split, the stores at or
// above it), so every word a later run can load must still read 0 — across
// the split, the data segment, and arenas that shrink and grow between runs.

import (
	"testing"

	"ilp/internal/isa"
	"ilp/internal/machine"
)

// storeProgram has an 8-word nonzero data segment and stores a nonzero
// value through RSP to the deepest stack slot (the word just below the
// stack top) and to a frame 64 words down, then to every absolute address
// in addrs.
func storeProgram(addrs []int64) *isa.Program {
	b := isa.NewBuilder()
	b.Data(11, 12, 13, 14, 15, 16, 17, 18)
	b.Li(isa.R(1), 0x5a5a)
	b.Store(isa.OpSw, isa.R(1), isa.RSP, -1)
	b.Imm(isa.OpAddi, isa.RSP, isa.RSP, -64)
	b.Store(isa.OpSw, isa.R(1), isa.RSP, 0)
	for _, a := range addrs {
		b.Store(isa.OpSw, isa.R(1), isa.RZero, a)
	}
	b.Halt()
	return b.MustFinish()
}

// loadProgram has a one-word data segment and prints the word at every
// address in addrs.
func loadProgram(addrs []int64) *isa.Program {
	b := isa.NewBuilder()
	b.Data(0)
	for _, a := range addrs {
		b.Load(isa.OpLw, isa.R(2), isa.RZero, a)
		b.Print(isa.R(2))
	}
	b.Halt()
	return b.MustFinish()
}

// splitAddrs is a global beyond the loader's data segment plus the words on
// both sides of a memWords arena's split.
func splitAddrs(memWords int64) []int64 {
	return []int64{3, memWords/2 - 1, memWords / 2}
}

// storeThenLoad runs storeProgram(stores) in a storeWords arena, then, on
// the same engine, one load run per loadWords size over every nonzero word
// the store run left that fits that arena — its data segment, both stack
// slots and stores — failing on any word that does not read 0.
func storeThenLoad(t *testing.T, e *Engine, storeWords int64, stores []int64, loadWords ...int64) {
	t.Helper()
	var res Result
	opts := Options{Machine: machine.Base(), MemWords: int(storeWords)}
	if err := e.RunInto(storeProgram(stores), opts, &res); err != nil {
		t.Fatalf("store run (%d words): %v", storeWords, err)
	}
	nonzero := append([]int64{0, 1, 2, 3, 4, 5, 6, 7, storeWords - 1, storeWords - 64}, stores...)
	for _, lw := range loadWords {
		var addrs []int64
		for _, a := range nonzero {
			if a < lw {
				addrs = append(addrs, a)
			}
		}
		opts.MemWords = int(lw)
		if err := e.RunInto(loadProgram(addrs), opts, &res); err != nil {
			t.Fatalf("load run (%d words): %v", lw, err)
		}
		if len(res.Output) != len(addrs) {
			t.Fatalf("load run (%d words): %d outputs, want %d", lw, len(res.Output), len(addrs))
		}
		for i, v := range res.Output {
			if v.I != 0 {
				t.Errorf("store at %d words, load at %d words: word %d reads %d after Reset, want 0",
					storeWords, lw, addrs[i], v.I)
			}
		}
	}
}

func TestResetMemoryClearsBothSides(t *testing.T) {
	e := NewEngine()
	storeThenLoad(t, e, 4096, splitAddrs(4096), 4096)
	storeThenLoad(t, e, DefaultMemWords, splitAddrs(DefaultMemWords), DefaultMemWords)
	// Stack stores only: no global mark covers the data segment.
	storeThenLoad(t, e, 4096, nil, 4096)
}

// TestResetMemoryResized shrinks and then grows the arena across Resets of
// one engine: a shrinking Reset must still clear the stack band above the
// new length, since a later growing Reset exposes it again.
func TestResetMemoryResized(t *testing.T) {
	e := NewEngine()
	storeThenLoad(t, e, 8192, splitAddrs(8192), 4096, 8192)
	storeThenLoad(t, e, 4096, splitAddrs(4096), 8192, 2048)
	// Past the arena's capacity: a fresh allocation, then back down.
	storeThenLoad(t, e, 16384, splitAddrs(16384), 1024, 16384)
}
