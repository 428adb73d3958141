package sim

import (
	"context"
	"math"

	"ilp/internal/statictime"
)

// DefaultProfileBudget is the dynamic-instruction budget of a profiling
// pre-run: long enough that any loop branch worth specializing has executed
// well past the profile's evidence threshold, short enough (sub-millisecond
// at the engine's throughput) to disappear into the compile step it rides
// on.
const DefaultProfileBudget = 1 << 18

// Profile executes an instruction-budgeted pre-run of code on e's fast
// path and folds the engine's block entry/exit counters into an execution
// profile for trace specialization (Code.Specialize). The run is abandoned
// cleanly at the budget — a program still mid-flight yields a truncated but
// valid profile; the open run's tail can overcount a pc by at most one,
// noise at the evidence threshold. The counts are architectural, so the
// profile is valid for every machine sharing the program, whatever their
// timing. memWords sizes the run's memory (0 means DefaultMemWords);
// budget ≤ 0 means DefaultProfileBudget. The pre-run is an ordinary engine
// run, so the next Reset clears it like any other.
func (e *Engine) Profile(ctx context.Context, code *Code, memWords int, budget int64) (*statictime.Profile, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if budget <= 0 {
		budget = DefaultProfileBudget
	}
	opts := Options{Machine: code.cfg, MemWords: memWords, Code: code}
	if err := e.Reset(code.prog, opts); err != nil {
		return nil, err
	}
	// Any caches the machine carries are irrelevant here — the
	// architectural path, and with it the block counters, is the same with
	// or without them — so drop them and keep trace replay. runFast
	// directly, not RunIntoCtx: the budget is a stop point, not an
	// instruction limit, so hitting it yields state back without error.
	e.icache, e.dcache = nil, nil
	if err := e.runFast(ctx, math.MaxInt64, budget); err != nil {
		return nil, err
	}
	n := len(e.dec) - 1 // drop the sentinel
	pr := &statictime.Profile{
		Count: make([]int64, n),
		Taken: make([]int64, n),
	}
	// The same prefix fold as fillResult's: the number of open
	// contiguous execution runs covering pc is its execution count, and
	// exit[pc] is its taken-transfer count.
	var live int64
	for i := 0; i < n; i++ {
		live += e.enter[i]
		pr.Count[i] = live
		live -= e.exit[i]
	}
	copy(pr.Taken, e.exit[:n])
	return pr, nil
}
