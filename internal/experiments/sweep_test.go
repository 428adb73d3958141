// sweep_test.go pins the one measurement path: every sweep fans its cells
// out over the worker pool, each cache miss running on its worker slot's
// engine, so the worker count, a result store and concurrent sweeps change
// scheduling only — never the rendered tables or the sweep accounting.
package experiments

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"ilp/internal/compiler"
	"ilp/internal/machine"
	"ilp/internal/store"
)

// TestSweepWorkersBitIdentical renders measureMany-driven experiments at
// several worker counts and requires identical text and series, and the
// same cache traffic and mispath exits, as the single-worker sweep.
func TestSweepWorkersBitIdentical(t *testing.T) {
	ids := []string{"fig2", "fig4-1", "tab2-1"}
	render := func(workers int) ([]*Result, RunnerStats) {
		r := NewRunner(Config{MaxDegree: 4, Benchmarks: []string{"whet", "linpack"}, Workers: workers})
		var out []*Result
		for _, id := range ids {
			res, err := r.Run(id)
			if err != nil {
				t.Fatalf("%s (workers=%d): %v", id, workers, err)
			}
			out = append(out, res)
		}
		return out, r.Stats()
	}
	want, ws := render(1)
	if ws.Superblocks == 0 || ws.CondTraces == 0 || ws.MispathExits == 0 {
		t.Fatalf("sweep specialized nothing: %+v", ws)
	}
	for _, workers := range []int{2, 4, 7} {
		got, gs := render(workers)
		for i, id := range ids {
			if got[i].Text != want[i].Text {
				t.Errorf("%s: workers=%d rendition diverged:\n got:\n%s\nwant:\n%s", id, workers, got[i].Text, want[i].Text)
			}
			if !reflect.DeepEqual(got[i].Series, want[i].Series) {
				t.Errorf("%s: workers=%d series diverged", id, workers)
			}
		}
		if gs.Sims != ws.Sims || gs.SimHits != ws.SimHits || gs.MispathExits != ws.MispathExits {
			t.Errorf("workers=%d: accounting diverged: %+v vs %+v", workers, gs, ws)
		}
	}
}

// TestMispathExitsStoreBacked: a store-backed runner takes the same path as
// a plain one, so the same experiments count the same, non-zero, mispath
// exits.
func TestMispathExitsStoreBacked(t *testing.T) {
	cfg := Config{MaxDegree: 4, Benchmarks: []string{"whet", "linpack"}}
	st, err := store.Open(filepath.Join(t.TempDir(), "m.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stored := cfg
	stored.Store = st
	var exits []int64
	for _, r := range []*Runner{NewRunner(cfg), NewRunner(stored)} {
		for _, id := range []string{"fig2", "fig4-1"} {
			if _, err := r.Run(id); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
		}
		exits = append(exits, r.Stats().MispathExits)
	}
	if exits[0] == 0 || exits[0] != exits[1] {
		t.Errorf("mispath exits: plain %d, store-backed %d; want equal and non-zero", exits[0], exits[1])
	}
}

// TestExtSlackHoldsWorkerSlot: ext-slack compiles and simulates inside a
// worker slot, so on a one-worker runner it never leads a compile beside a
// concurrent sweep's leader. The two views sweep different benchmarks, so
// no compile of one can join the other's. The first leader parks until a
// second leader enters (the violation) or a short timeout passes.
func TestExtSlackHoldsWorkerSlot(t *testing.T) {
	r := NewRunner(Config{MaxDegree: 2, Workers: 1})
	var (
		mu                  sync.Mutex
		inFlight, maxFlight int
		leaders             int
		second              = make(chan struct{})
	)
	r.compileHook = func(ctx context.Context, bench string, m *machine.Config) error {
		mu.Lock()
		inFlight++
		maxFlight = max(maxFlight, inFlight)
		leaders++
		n := leaders
		mu.Unlock()
		if n == 1 {
			select {
			case <-second:
			case <-time.After(200 * time.Millisecond):
			}
		} else if n == 2 {
			close(second)
		}
		mu.Lock()
		inFlight--
		mu.Unlock()
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, sweep := range []struct{ id, bench string }{{"fig4-1", "whet"}, {"ext-slack", "linpack"}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = r.WithSweep(0, []string{sweep.bench}).Run(sweep.id)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if maxFlight > 1 {
		t.Errorf("%d compile leaders in flight at once on a one-worker runner", maxFlight)
	}
}

// TestBatchedMeasureManyDuplicates: duplicate cells inside one sweep
// fan-out join the first occurrence's singleflight entry instead of
// re-simulating.
func TestBatchedMeasureManyDuplicates(t *testing.T) {
	r := NewRunner(Config{})
	jobs := append(sweepJobs("whet", 2), sweepJobs("whet", 2)...)
	res, err := r.measureMany(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if res[i] == nil || res[i] != res[i+2] {
			t.Errorf("duplicate job %d did not join its leader's entry", i)
		}
	}
	st := r.Stats()
	if st.Sims != 2 || st.SimHits != 2 || st.BatchedCells != 4 {
		t.Errorf("stats = %+v, want 2 sims, 2 hits, 4 fan-out cells", st)
	}
}

// TestBatchedMeasureManyCancellation: a cancelled sweep returns the
// cancellation, evicts its claimed entries (no cache poisoning), and a later
// live-context sweep redoes and completes the work.
func TestBatchedMeasureManyCancellation(t *testing.T) {
	r := NewRunner(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.measureMany(ctx, sweepJobs("whet", 2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	res, err := r.measureMany(context.Background(), sweepJobs("whet", 2))
	if err != nil || res[0] == nil || res[1] == nil {
		t.Fatalf("retry after cancelled sweep failed: res=%v err=%v", res, err)
	}
}

// TestBatchedMatchesMeasureCtx: a cell simulated by a sweep fan-out is
// DeepEqual to the same cell measured individually by a fresh runner.
func TestBatchedMatchesMeasureCtx(t *testing.T) {
	opts := compiler.Options{Level: compiler.O4}
	rSweep := NewRunner(Config{})
	res, err := rSweep.measureMany(context.Background(), sweepJobs("whet", 3))
	if err != nil {
		t.Fatal(err)
	}
	rSolo := NewRunner(Config{})
	for i := 0; i < 3; i++ {
		want, err := rSolo.MeasureCtx(context.Background(), "whet", opts, machine.IdealSuperscalar(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res[i], want) {
			t.Errorf("degree %d: swept cell diverged from MeasureCtx:\n got %+v\nwant %+v", i+1, res[i], want)
		}
	}
}
