// Package experiments regenerates every table and figure of the paper's
// evaluation (§2.7, §4, §5) from the reproduction's own compiler,
// benchmarks, and simulator. Each experiment produces a text rendition of
// the paper's table/figure plus structured series for tests to assert the
// shape results on (see EXPERIMENTS.md for paper-vs-measured).
package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ilp/internal/benchmarks"
	"ilp/internal/compiler"
	"ilp/internal/faultinject"
	"ilp/internal/ilperr"
	"ilp/internal/isa"
	"ilp/internal/machine"
	"ilp/internal/metrics"
	"ilp/internal/sim"
	"ilp/internal/store"
)

// The pipeline's structured error taxonomy, re-exported so callers inside
// and outside this package spell it the same way (see internal/ilperr).
type (
	// CompileError reports a failed (or panicked) compilation.
	CompileError = ilperr.CompileError
	// SimError reports a failed (or panicked) simulation.
	SimError = ilperr.SimError
)

// ErrPanic marks errors recovered from panicking workers.
var ErrPanic = ilperr.ErrPanic

// Config controls an experiment run.
type Config struct {
	// MaxDegree is the largest superscalar/superpipelined degree swept
	// (the paper uses 8). Smaller values make quick runs.
	MaxDegree int
	// Workers bounds concurrent simulations; 0 means GOMAXPROCS.
	Workers int
	// Benchmarks restricts the suite (nil = all eight).
	Benchmarks []string

	// Retries is how many times a transiently failed compile or
	// measurement attempt is retried (inside its singleflight leader, with
	// capped exponential backoff) before the failure is published. 0
	// disables retries. Transience is decided by ilperr.IsTransient:
	// injected faults and store I/O errors retry, semantic failures,
	// panics, and cancellations do not.
	Retries int
	// BaseBackoff is the delay before the first retry; each further retry
	// doubles it up to MaxBackoff. The wait is deterministically jittered
	// per (key, attempt). Zero means 1ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the retry delay. Zero means 250ms.
	MaxBackoff time.Duration

	// Degrade, when set, turns a permanently failed measurement cell into
	// a placeholder sim.Result flagged Degraded (NaN cycle counts) with a
	// nil error, so the sweep renders a partial row instead of dying.
	// Cancellations still propagate as errors. The runner counts degraded
	// cells in its stats and SweepReport.
	Degrade bool

	// Store, when non-nil, makes results durable: every committed cell is
	// appended to the store as part of its measurement (so a failed append
	// retries the cell and a completed cell is never lost), and records
	// already in the store preload the sim cache, resuming a previous
	// sweep without re-simulating.
	Store *store.Store

	// Faults, when non-nil, is the deterministic fault injector driving
	// the chaos tests. nil (the default) injects nothing.
	Faults *faultinject.Injector
}

func (c Config) maxDegree() int {
	if c.MaxDegree <= 0 {
		return 8
	}
	return c.MaxDegree
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

func (c Config) retries() int {
	if c.Retries < 0 {
		return 0
	}
	return c.Retries
}

func (c Config) baseBackoff() time.Duration {
	if c.BaseBackoff <= 0 {
		return time.Millisecond
	}
	return c.BaseBackoff
}

func (c Config) maxBackoff() time.Duration {
	if c.MaxBackoff <= 0 {
		return 250 * time.Millisecond
	}
	return c.MaxBackoff
}

func (c Config) suite() ([]benchmarks.Benchmark, error) {
	if len(c.Benchmarks) == 0 {
		return benchmarks.All(), nil
	}
	var out []benchmarks.Benchmark
	for _, name := range c.Benchmarks {
		b, err := benchmarks.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// Result is one regenerated table or figure.
type Result struct {
	ID     string
	Title  string
	Text   string
	Series []metrics.Series
	// Degraded counts measurement cells that permanently failed and were
	// degraded to placeholder NaN rows while this experiment ran (only
	// possible with Config.Degrade; shared cells degraded by an earlier
	// experiment are counted there, not here).
	Degraded int
}

// Experiment is a registered reproduction. Run receives the context of the
// sweep that invoked it and must hand it down to every measurement so a
// cancelled caller stops in-flight simulations, not just queued ones.
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx context.Context, r *Runner) (*Result, error)
}

var registry []Experiment

func register(id, title string, run func(ctx context.Context, r *Runner) (*Result, error)) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// canonicalOrder is the paper's presentation order (registration order
// depends on file-name init order, which is not it).
var canonicalOrder = []string{
	"fig2", "tab2-1",
	"fig4-1", "fig4-2", "fig4-3", "fig4-4", "fig4-5",
	"fig4-6", "fig4-7", "fig4-8",
	"tab5-1", "sec5-1",
	"abl-branch", "abl-temps", "abl-sched", "abl-memdep",
	"ext-conflicts", "ext-vliw", "ext-icache", "ext-limits", "ext-slack",
}

// Experiments lists all registered experiments in the paper's order.
func Experiments() []Experiment {
	byID := map[string]Experiment{}
	for _, e := range registry {
		byID[e.ID] = e
	}
	var out []Experiment
	for _, id := range canonicalOrder {
		if e, ok := byID[id]; ok {
			out = append(out, e)
			delete(byID, id)
		}
	}
	// Anything registered but not in the canonical list goes last, in
	// registration order.
	for _, e := range registry {
		if _, left := byID[e.ID]; left {
			out = append(out, e)
		}
	}
	return out
}

// IDs lists experiment ids.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.ID
	}
	return out
}

// ByID finds one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
}

// Runner caches compilations and simulations across experiments with two
// fingerprint-keyed levels:
//
//   - The compile cache is keyed by (benchmark, compiler options,
//     machine.ScheduleFingerprint) — everything the compiler can observe.
//     Machine variants that differ only in name or cache geometry (the §5
//     sweeps, ext-icache) share one compilation.
//   - The sim cache is keyed by the compile key plus machine.Fingerprint,
//     the canonical hash of the complete description including caches, so
//     two configurations can never collide unless every simulated detail
//     is identical.
//
// Both levels are singleflight: the first goroutine to request a key
// becomes its leader and concurrent requesters block on the entry's ready
// channel instead of duplicating the work.
type Runner struct {
	Cfg Config

	// core is the shared half of the runner: caches, worker pool and
	// stats. Views built with WithSweep alias the same core under a
	// different sweep shape (degree, benchmark subset), so a long-running
	// process — the ilpd daemon — serves every client from
	// one fingerprint-keyed singleflight cache regardless of how each
	// request slices the sweep.
	*core
}

// core is the state every view of a runner shares. It is embedded in
// Runner, so runner methods (and the package's tests) spell its fields
// as r.mu, r.sims, r.measureHook, … unchanged.
type core struct {
	mu       sync.Mutex
	compiles map[string]*compileEntry
	sims     map[string]*simEntry
	stats    RunnerStats
	// sem holds one token per worker slot (see acquire).
	sem chan struct{}

	// compileHook and measureHook, when non-nil, run inside the
	// corresponding singleflight leader just before the real work (after
	// worker-slot acquisition). Tests use them to inject delays, failures,
	// and panics into the pipeline; a non-nil returned error fails the job
	// as if the phase itself had failed.
	compileHook func(ctx context.Context, bench string, m *machine.Config) error
	measureHook func(ctx context.Context, bench string, m *machine.Config) error
}

type compileEntry struct {
	ready chan struct{} // closed when prog/code/err are set
	prog  *isa.Program
	// code is the shared immutable predecode of prog, built once by the
	// compile leader and reused read-only by every simulation of this
	// compile key (the sim key only adds cache geometry, which predecode
	// does not depend on).
	code *sim.Code
	err  error
}

type simEntry struct {
	ready chan struct{} // closed when res/err are set
	res   *sim.Result
	err   error
}

// RunnerStats counts cache traffic and fault-tolerance events, so tooling
// (ilpbench -stats) can show how much work the two-level cache eliminated
// and how the sweep weathered failures.
type RunnerStats struct {
	Compiles        int64 // compilations actually performed
	CompileHits     int64 // compile requests served from (or joined onto) the cache
	Sims            int64 // simulations actually performed
	SimHits         int64 // measure requests served from (or joined onto) the cache
	Predecodes      int64 // predecode artifacts built (once per compile key)
	PredecodeShared int64 // live simulations that reused a shared predecode
	Resumed         int64 // sim-cache cells preloaded from the result store
	Retries         int64 // transient-failure retry waits performed
	Degraded        int64 // cells whose permanent failure degraded to a placeholder
	Superblocks     int64 // superblock traces specialized across built predecodes
	CondTraces      int64 // profile-specialized traces (past likely-taken branches)
	BatchedCells    int64 // cells requested through a sweep fan-out (measureMany)
	MispathExits    int64 // specialized-trace guard exits across live cells
	Instructions    int64 // dynamic instructions simulated by live leader sims
}

// NewRunner builds a runner. When cfg.Store is set, every readable record
// already in the store preloads the sim cache (counted as Resumed), so
// cells committed by a previous — possibly interrupted — sweep are served
// without recompiling or re-simulating.
func NewRunner(cfg Config) *Runner {
	r := &Runner{
		Cfg: cfg,
		core: &core{
			compiles: map[string]*compileEntry{},
			sims:     map[string]*simEntry{},
			sem:      make(chan struct{}, cfg.workers()),
		},
	}
	if cfg.Store != nil {
		for _, rec := range cfg.Store.Records() {
			res := new(sim.Result)
			if err := json.Unmarshal(rec.Payload, res); err != nil {
				continue // unreadable payload: recompute the cell
			}
			ready := make(chan struct{})
			close(ready)
			r.sims[rec.Key] = &simEntry{ready: ready, res: res}
			r.stats.Resumed++
		}
	}
	return r
}

// WithSweep returns a view of r whose sweep shape — the swept degree and
// the benchmark subset — is overridden while every shared half of the
// runner (the singleflight compile/sim/predecode caches, the worker pool,
// the stats counters, the store, the retry/degrade policy) stays aliased
// to r. Concurrent sweeps through different views coalesce on identical
// cells exactly as concurrent calls through one runner do. maxDegree <= 0
// keeps r's degree; a nil benchmark list keeps r's subset.
func (r *Runner) WithSweep(maxDegree int, benchmarks []string) *Runner {
	cfg := r.Cfg
	if maxDegree > 0 {
		cfg.MaxDegree = maxDegree
	}
	if benchmarks != nil {
		cfg.Benchmarks = benchmarks
	}
	return &Runner{Cfg: cfg, core: r.core}
}

// Stats returns a snapshot of the runner's cache counters.
func (r *Runner) Stats() RunnerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Run executes one experiment by id.
func (r *Runner) Run(id string) (*Result, error) {
	return r.RunCtx(context.Background(), id)
}

// experimentIDKey carries the running experiment's id down to the
// measurement pipeline, so store records carry their provenance.
type ctxKey int

const experimentIDKey ctxKey = iota

func withExperimentID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, experimentIDKey, id)
}

func experimentID(ctx context.Context) string {
	id, _ := ctx.Value(experimentIDKey).(string)
	return id
}

// RunCtx executes one experiment by id under ctx. The experiment is fault
// isolated: a panic anywhere in its run (including its own table-building
// code) is converted into an error matching ErrPanic instead of killing
// the process.
func (r *Runner) RunCtx(ctx context.Context, id string) (res *Result, err error) {
	e, err := ByID(id)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, cause(ctx)
	}
	ctx = withExperimentID(ctx, id)
	before := r.Stats().Degraded
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, fmt.Errorf("experiment %s: %w", id, ilperr.PanicError(v, debug.Stack()))
		}
	}()
	res, err = e.Run(ctx, r)
	if res != nil {
		res.Degraded = int(r.Stats().Degraded - before)
	}
	return res, err
}

// SweepReport is RunAll's fault-tolerance accounting. Cells and Degraded
// are resume invariant: an interrupted sweep resumed from its store reports
// the same committed-cell and degraded-cell totals as an uninterrupted run
// of the same configuration (Live/Resumed/Retried describe how this
// process got there and do vary).
type SweepReport struct {
	Experiments     int      // experiments rendered successfully
	Failed          []string // ids of experiments that failed (non-cancellation)
	Cells           int      // measurement cells with committed results
	Degraded        int64    // cells that permanently failed and render as NaN rows
	Retried         int64    // transient-failure retry waits performed
	Live            int64    // simulations performed by this process
	Resumed         int64    // cells preloaded from the result store
	Predecodes      int64    // predecode artifacts built (once per compile key)
	PredecodeShared int64    // live simulations that reused a shared predecode
	Superblocks     int64    // superblock traces specialized across built predecodes
	CondTraces      int64    // profile-specialized traces (past likely-taken branches)
	BatchedCells    int64    // cells requested through a sweep fan-out (measureMany)
	MispathExits    int64    // specialized-trace guard exits across live cells
}

// Report snapshots the runner's sweep accounting.
func (r *Runner) Report() SweepReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := SweepReport{
		Degraded:        r.stats.Degraded,
		Retried:         r.stats.Retries,
		Live:            r.stats.Sims,
		Resumed:         r.stats.Resumed,
		Predecodes:      r.stats.Predecodes,
		PredecodeShared: r.stats.PredecodeShared,
		Superblocks:     r.stats.Superblocks,
		CondTraces:      r.stats.CondTraces,
		BatchedCells:    r.stats.BatchedCells,
		MispathExits:    r.stats.MispathExits,
	}
	for _, se := range r.sims {
		select {
		case <-se.ready:
			if se.err == nil && se.res != nil {
				rep.Cells++
			}
		default: // still in flight; not committed
		}
	}
	return rep
}

// RunAll executes every experiment in the paper's canonical order
// (Experiments()), writing each rendition to w. Cancellation stops the
// sweep at the current experiment; any other experiment failure is
// recorded in the report (and the joined error) and the sweep moves on, so
// one broken experiment cannot take down the rest. Renditions already
// written remain valid partial output.
func (r *Runner) RunAll(ctx context.Context, w io.Writer) (SweepReport, error) {
	var (
		errs     []error
		rendered int
		failed   []string
	)
	report := func() SweepReport {
		rep := r.Report()
		rep.Experiments = rendered
		rep.Failed = failed
		return rep
	}
	for _, e := range Experiments() {
		res, err := r.RunCtx(ctx, e.ID)
		if err != nil {
			err = fmt.Errorf("%s: %w", e.ID, err)
			if isCancellation(ctx, err) {
				return report(), err
			}
			failed = append(failed, e.ID)
			errs = append(errs, err)
			continue
		}
		rendered++
		fmt.Fprintf(w, "==== %s: %s ====\n\n%s\n", res.ID, res.Title, res.Text)
	}
	return report(), errors.Join(errs...)
}

// compileKey builds the compile-cache key: the benchmark, every compiler
// option, and the schedule-relevant machine fingerprint. Deliberately
// excludes machine name and cache geometry — the compiler cannot see them.
func compileKey(bench string, copts compiler.Options, m *machine.Config) string {
	return fmt.Sprintf("%s|L%d|u%d|c%v|ns%v|%s",
		bench, copts.Level, copts.Unroll, copts.Careful, copts.NoSchedule,
		m.ScheduleFingerprint())
}

// cause is the error a cancelled measurement surfaces: the recorded
// cancellation cause when there is one (the sibling failure that stopped
// the sweep), the plain context error otherwise. Returning the cause by
// identity lets measureMany recognize propagated sibling failures and
// report each distinct root cause exactly once.
func cause(ctx context.Context) error {
	if c := context.Cause(ctx); c != nil {
		return c
	}
	return ctx.Err()
}

// isCancellation reports whether err is the result of ctx being cancelled
// (directly, or as the propagated cause of a sibling failure) rather than a
// genuine failure of the job itself.
func isCancellation(ctx context.Context, err error) bool {
	if err == nil {
		return false
	}
	if c := context.Cause(ctx); c != nil && errors.Is(err, c) {
		return true
	}
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Measure compiles the named benchmark for machine m with the given options
// and simulates it, caching both levels of the work.
func (r *Runner) Measure(bench string, copts compiler.Options, m *machine.Config) (*sim.Result, error) {
	return r.MeasureCtx(context.Background(), bench, copts, m)
}

// MeasureCtx is Measure under a context: a done ctx aborts queued work
// (waiting for a worker slot or a singleflight entry) immediately and
// in-flight simulation within the engine's polling interval. A leader that
// fails because of cancellation does not poison the cache — its entry is
// evicted so a later call with a live context redoes the work — and any
// panic in the pipeline surfaces as a structured CompileError/SimError
// matching ErrPanic instead of crashing the process.
//
// Fault tolerance happens here and below: the leader retries transient
// attempt failures per Config.Retries (publishing an exhausted transient
// failure as permanent, so nothing upstream retries a cached verdict), and
// with Config.Degrade a genuine failure is returned to every caller as a
// Degraded placeholder result instead of an error.
func (r *Runner) MeasureCtx(ctx context.Context, bench string, copts compiler.Options, m *machine.Config) (*sim.Result, error) {
	if ctx.Err() != nil {
		return nil, cause(ctx)
	}
	fp := m.Fingerprint()
	ckey := compileKey(bench, copts, m)
	skey := ckey + "|" + fp

	r.mu.Lock()
	if se, ok := r.sims[skey]; ok {
		r.stats.SimHits++
		r.mu.Unlock()
		select {
		case <-se.ready:
			res, err := r.finish(ctx, m, se.res, se.err)
			notify(ctx, bench, m, fp, res, err, true)
			return res, err
		case <-ctx.Done():
			return nil, cause(ctx)
		}
	}
	se := &simEntry{ready: make(chan struct{})}
	r.sims[skey] = se
	r.stats.Sims++
	r.mu.Unlock()

	se.res, se.err = r.measure(ctx, bench, copts, m, ckey, skey)
	if se.err != nil && ilperr.IsTransient(se.err) {
		// Retries exhausted: publish as permanent so no later policy layer
		// retries a verdict the cache will keep serving.
		se.err = ilperr.MarkPermanent(se.err)
	}
	if se.err != nil && ctx.Err() != nil {
		// Cancellation-induced failure: evict the entry (before waking
		// waiters) so the key is retried rather than cached as failed.
		r.mu.Lock()
		if r.sims[skey] == se {
			delete(r.sims, skey)
		}
		r.mu.Unlock()
	} else if se.err != nil && r.Cfg.Degrade && !isCancellation(ctx, se.err) {
		// The cell permanently failed and will degrade for every caller;
		// count it once, at the leader.
		r.mu.Lock()
		r.stats.Degraded++
		r.mu.Unlock()
	}
	close(se.ready)
	res, err := r.finish(ctx, m, se.res, se.err)
	notify(ctx, bench, m, fp, res, err, false)
	return res, err
}

// finish applies the degradation policy to a cell's outcome: with
// Config.Degrade, a genuine (non-cancellation) failure becomes a
// placeholder result flagged Degraded whose cycle counts are NaN, so sweep
// tables render a partial row instead of propagating the error.
func (r *Runner) finish(ctx context.Context, m *machine.Config, res *sim.Result, err error) (*sim.Result, error) {
	if err == nil || !r.Cfg.Degrade || isCancellation(ctx, err) {
		return res, err
	}
	return &sim.Result{Machine: m.Name, Degraded: true, BaseCycles: math.NaN()}, nil
}

// acquire takes a worker slot and borrows a pooled engine for it. Every
// compile leader and every simulation runs inside a slot, so Config.Workers
// bounds the whole pipeline, and a slot's cells (and its compile leader's
// profile pre-run) run back to back on one engine, recycling one memory
// arena. Pair with release.
func (r *Runner) acquire(ctx context.Context) (*sim.Engine, error) {
	select {
	case r.sem <- struct{}{}:
		return sim.Borrow(), nil
	case <-ctx.Done():
		return nil, cause(ctx)
	}
}

// release returns the engine to the pool and frees the slot.
func (r *Runner) release(e *sim.Engine) {
	e.Release()
	<-r.sem
}

// measure is the sim-cache miss path: acquire a worker slot and its engine
// (held across all attempts), then run measureAttempt under the
// transient-failure retry policy. It is the singleflight leader for its sim
// key.
func (r *Runner) measure(ctx context.Context, bench string, copts compiler.Options, m *machine.Config, ckey, skey string) (*sim.Result, error) {
	e, err := r.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer r.release(e)

	var res *sim.Result
	for attempt := 0; ; attempt++ {
		res, err = r.measureAttempt(ctx, e, bench, copts, m, ckey, skey, attempt)
		if err == nil || !ilperr.IsTransient(err) || attempt >= r.Cfg.retries() {
			break
		}
		r.noteRetry()
		if werr := r.sleepBackoff(ctx, skey, attempt); werr != nil {
			res, err = nil, werr
			break
		}
	}
	return res, err
}

// measureAttempt is one try at a measurement cell on the slot's engine e:
// compile (cached), pass the fault-injection sites, simulate, and persist
// the result to the store. The store append is part of the attempt on
// purpose — if the append fails, the attempt fails and the retry recomputes
// and re-appends, so a cell is committed exactly when its record is
// durable. The attempt
// carries the panic isolation for the simulation phase (injected worker
// panics land here too, classifying permanent via ErrPanic).
func (r *Runner) measureAttempt(ctx context.Context, e *sim.Engine, bench string, copts compiler.Options, m *machine.Config, ckey, skey string, attempt int) (res *sim.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, &SimError{
				Benchmark: bench, Machine: m.Name, Fingerprint: m.Fingerprint(),
				Phase: ilperr.PhaseSimulate, Err: ilperr.PanicError(v, debug.Stack()),
			}
		}
	}()
	if ctx.Err() != nil {
		return nil, cause(ctx)
	}
	prog, code, err := r.compile(ctx, e, bench, copts, m, ckey)
	if err != nil {
		return nil, err
	}
	inj := r.Cfg.Faults
	if werr := inj.Slow(ctx, skey, attempt); werr != nil {
		return nil, werr
	}
	if inj.ShouldPanic(skey, attempt) {
		panic(fmt.Sprintf("injected fault: worker panic at %s (attempt %d)", skey, attempt))
	}
	if ferr := inj.Fail(faultinject.SiteSim, skey, attempt); ferr != nil {
		return nil, r.simFailure(ctx, bench, m, ferr)
	}
	if h := r.measureHook; h != nil {
		if err := h(ctx, bench, m); err != nil {
			return nil, r.simFailure(ctx, bench, m, err)
		}
	}
	res = new(sim.Result)
	if err := e.RunIntoCtx(ctx, prog, sim.Options{Machine: m, Code: code}, res); err != nil {
		return nil, r.simFailure(ctx, bench, m, err)
	}
	r.mu.Lock()
	if code != nil {
		r.stats.PredecodeShared++
	}
	r.stats.Instructions += res.Instructions
	r.stats.MispathExits += e.Mispaths()
	r.mu.Unlock()
	if perr := r.persist(ctx, bench, m, skey, attempt, res); perr != nil {
		return nil, perr
	}
	return res, nil
}

// persist makes a committed cell durable. A store I/O failure (or an
// injected SiteStore fault) is transient — the retry policy reruns the
// whole attempt, so the store never records a cell the runner did not
// hand back, and the runner never hands back a cell the store lost.
func (r *Runner) persist(ctx context.Context, bench string, m *machine.Config, skey string, attempt int, res *sim.Result) error {
	st := r.Cfg.Store
	if ferr := r.Cfg.Faults.Fail(faultinject.SiteStore, skey, attempt); ferr != nil {
		path := "(none)"
		if st != nil {
			path = st.Path()
		}
		return &ilperr.StoreError{Path: path, Op: "append", Err: ferr}
	}
	if st == nil {
		return nil
	}
	payload, err := json.Marshal(res)
	if err != nil {
		return ilperr.MarkPermanent(&ilperr.StoreError{Path: st.Path(), Op: "append", Err: err})
	}
	return st.Append(store.Record{
		Key: skey, Experiment: experimentID(ctx), Benchmark: bench,
		Machine: m.Name, Fingerprint: m.Fingerprint(), Payload: payload,
	})
}

// noteRetry counts one retry wait.
func (r *Runner) noteRetry() {
	r.mu.Lock()
	r.stats.Retries++
	r.mu.Unlock()
}

// sleepBackoff waits the capped-exponential, deterministically jittered
// backoff before retrying key's attempt, or returns the cancellation cause
// early.
func (r *Runner) sleepBackoff(ctx context.Context, key string, attempt int) error {
	return sleepCtx(ctx, backoffDelay(r.Cfg.baseBackoff(), r.Cfg.maxBackoff(), key, attempt))
}

// backoffDelay doubles base per attempt up to max, with equal jitter: half
// the delay is fixed, half is hash-derived from (key, attempt), so
// schedules are reproducible run-to-run yet colliding retries spread out.
func backoffDelay(base, max time.Duration, key string, attempt int) time.Duration {
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte{0, byte(attempt), byte(attempt >> 8)})
	frac := float64(h.Sum64()>>11) / (1 << 53)
	return d/2 + time.Duration(frac*float64(d/2))
}

// sleepCtx sleeps d, or returns the cancellation cause if ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		if ctx.Err() != nil {
			return cause(ctx)
		}
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return cause(ctx)
	}
}

// simFailure classifies a simulation-phase error: cancellation propagates
// unwrapped (preserving the cause's identity), anything else becomes a
// structured SimError.
func (r *Runner) simFailure(ctx context.Context, bench string, m *machine.Config, err error) error {
	if isCancellation(ctx, err) {
		return err
	}
	return &SimError{
		Benchmark: bench, Machine: m.Name, Fingerprint: m.Fingerprint(),
		Phase: ilperr.PhaseSimulate, Err: err,
	}
}

// compile returns the compiled program for the key, compiling at most once.
// The caller holds a worker slot (see acquire) and e is that slot's engine,
// which a leader uses for its profile pre-run; since every leader holds a
// slot, waiters (who hold their own slots) can never starve it.
func (r *Runner) compile(ctx context.Context, e *sim.Engine, bench string, copts compiler.Options, m *machine.Config, ckey string) (*isa.Program, *sim.Code, error) {
	r.mu.Lock()
	if ce, ok := r.compiles[ckey]; ok {
		r.stats.CompileHits++
		r.mu.Unlock()
		select {
		case <-ce.ready:
			return ce.prog, ce.code, ce.err
		case <-ctx.Done():
			return nil, nil, cause(ctx)
		}
	}
	ce := &compileEntry{ready: make(chan struct{})}
	r.compiles[ckey] = ce
	r.stats.Compiles++
	r.mu.Unlock()

	ce.prog, ce.code, ce.err = r.doCompile(ctx, e, bench, copts, m, ckey)
	if ce.err != nil && ilperr.IsTransient(ce.err) {
		// Retries exhausted: publish permanent, so a sim-level retry that
		// hits this cached verdict does not spin on it.
		ce.err = ilperr.MarkPermanent(ce.err)
	}
	if ce.err != nil && ctx.Err() != nil {
		// Same eviction rule as the sim cache: do not poison the key with
		// a cancellation-induced failure.
		r.mu.Lock()
		if r.compiles[ckey] == ce {
			delete(r.compiles, ckey)
		}
		r.mu.Unlock()
	}
	close(ce.ready)
	return ce.prog, ce.code, ce.err
}

// doCompile is the compile-cache miss path: it runs compileAttempt under
// the same transient-failure retry policy as measure.
func (r *Runner) doCompile(ctx context.Context, e *sim.Engine, bench string, copts compiler.Options, m *machine.Config, ckey string) (*isa.Program, *sim.Code, error) {
	var (
		prog *isa.Program
		code *sim.Code
		err  error
	)
	for attempt := 0; ; attempt++ {
		prog, code, err = r.compileAttempt(ctx, e, bench, copts, m, ckey, attempt)
		if err == nil || !ilperr.IsTransient(err) || attempt >= r.Cfg.retries() {
			break
		}
		r.noteRetry()
		if werr := r.sleepBackoff(ctx, ckey, attempt); werr != nil {
			prog, code, err = nil, nil, werr
			break
		}
	}
	return prog, code, err
}

// compileAttempt is one try at a compilation, carrying the panic isolation
// and error wrapping for the compile phase (and the SiteCompile fault
// hook).
func (r *Runner) compileAttempt(ctx context.Context, e *sim.Engine, bench string, copts compiler.Options, m *machine.Config, ckey string, attempt int) (prog *isa.Program, code *sim.Code, err error) {
	defer func() {
		if v := recover(); v != nil {
			prog, code, err = nil, nil, &CompileError{
				Benchmark: bench, Machine: m.Name, Fingerprint: m.ScheduleFingerprint(),
				Phase: ilperr.PhaseCompile, Err: ilperr.PanicError(v, debug.Stack()),
			}
		}
	}()
	if ctx.Err() != nil {
		return nil, nil, cause(ctx)
	}
	b, err := benchmarks.ByName(bench)
	if err != nil {
		return nil, nil, err
	}
	if ferr := r.Cfg.Faults.Fail(faultinject.SiteCompile, ckey, attempt); ferr != nil {
		return nil, nil, r.compileFailure(ctx, bench, m, ferr)
	}
	if h := r.compileHook; h != nil {
		if err := h(ctx, bench, m); err != nil {
			return nil, nil, r.compileFailure(ctx, bench, m, err)
		}
	}
	copts.Machine = m
	c, err := compiler.Compile(b.Source, copts)
	if err != nil {
		return nil, nil, r.compileFailure(ctx, bench, m, err)
	}
	// Predecode once per compile key: the artifact is immutable, so every
	// simulation of this program — across all cache geometries and all
	// sweep workers — shares it read-only instead of re-translating.
	code, err = sim.Predecode(c.Prog, m)
	if err != nil {
		return nil, nil, r.compileFailure(ctx, bench, m, err)
	}
	// Profile-guided trace specialization: a short budgeted pre-run folds
	// the engine's block counters into a branch profile, and traces are
	// rebuilt to continue past likely-taken conditionals behind mispath
	// guards. Strictly best-effort — a pre-run that errors (a program that
	// faults, a cancelled ctx) or a profile that specializes nothing keeps
	// the plain predecode; either way timing is bit-identical by
	// construction, so the cache key needs no profile component.
	cond := 0
	if prof, perr := e.Profile(ctx, code, 0, 0); perr == nil {
		if spec := code.Specialize(prof); spec.CondTraces() > 0 {
			code, cond = spec, spec.CondTraces()
		}
	} else if isCancellation(ctx, perr) {
		return nil, nil, perr
	}
	r.mu.Lock()
	r.stats.Predecodes++
	r.stats.Superblocks += int64(code.Superblocks())
	r.stats.CondTraces += int64(cond)
	r.mu.Unlock()
	return c.Prog, code, nil
}

// compileFailure is simFailure's compile-phase twin.
func (r *Runner) compileFailure(ctx context.Context, bench string, m *machine.Config, err error) error {
	if isCancellation(ctx, err) {
		return err
	}
	return &CompileError{
		Benchmark: bench, Machine: m.Name, Fingerprint: m.ScheduleFingerprint(),
		Phase: ilperr.PhaseCompile, Err: err,
	}
}

// MeasureMany runs a set of (bench, opts, machine) jobs concurrently.
type job struct {
	bench string
	copts compiler.Options
	m     *machine.Config
}

// measureMany fans the jobs out over the worker pool under a shared
// cancellable context: the first failure cancels every queued and in-flight
// sibling (first error wins — it becomes the context's cause), a panicking
// worker is converted to a structured error instead of crashing the
// process, and every *distinct* root cause that raced in before the
// cancellation landed is reported via errors.Join. It is the one sweep
// path for every Config — store, faults and hooks included: each job is a
// MeasureCtx call, whose cache misses run on their worker slot's engine.
func (r *Runner) measureMany(pctx context.Context, jobs []job) ([]*sim.Result, error) {
	r.mu.Lock()
	r.stats.BatchedCells += int64(len(jobs))
	r.mu.Unlock()
	ctx, cancel := context.WithCancelCause(pctx)
	defer cancel(context.Canceled)

	results := make([]*sim.Result, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					errs[i] = &SimError{
						Benchmark: jobs[i].bench, Machine: jobs[i].m.Name,
						Phase: ilperr.PhaseSimulate, Err: ilperr.PanicError(v, debug.Stack()),
					}
					cancel(errs[i])
				}
			}()
			results[i], errs[i] = r.MeasureCtx(ctx, jobs[i].bench, jobs[i].copts, jobs[i].m)
			if errs[i] != nil {
				cancel(errs[i]) // first failure wins; no-op for later ones
			}
		}(i)
	}
	wg.Wait()
	if err := joinDistinct(context.Cause(ctx), errs); err != nil {
		return nil, err
	}
	// A request cancelled after its last cell resolved (a deadline or an
	// instruction-budget trip landing in the final notify) must still fail
	// the sweep: the caller's context is dead, so the caller gets its
	// cause, not a table it no longer has the budget to claim.
	if pctx.Err() != nil {
		return nil, cause(pctx)
	}
	return results, nil
}

// joinDistinct reduces a sweep's per-job errors to its distinct root
// causes: the cancellation cause first (the failure that stopped the
// sweep), then any other genuine failures in job order. Sibling errors that
// are merely the propagated cancellation — the cause itself, returned by
// identity, or a bare context error — collapse into one.
func joinDistinct(cause error, errs []error) error {
	seen := map[error]bool{}
	var distinct []error
	add := func(err error) {
		if err == nil || seen[err] {
			return
		}
		seen[err] = true
		distinct = append(distinct, err)
	}
	for _, err := range errs {
		if err == cause {
			add(cause) // report the root cause first
		}
	}
	for _, err := range errs {
		if cause != nil && (errors.Is(cause, err) || err == context.Canceled || err == context.DeadlineExceeded) {
			continue // propagation of the recorded cause, already reported
		}
		add(err)
	}
	switch len(distinct) {
	case 0:
		return nil
	case 1:
		return distinct[0]
	default:
		return errors.Join(distinct...)
	}
}

// Speedup returns base-cycle speedup of run over base.
func speedup(run, base *sim.Result) float64 {
	return base.BaseCycles / run.BaseCycles
}

// defaultOpts is the paper's standard configuration for §4.1–4.3:
// "throughout the remainder of this paper we assume that pipeline
// scheduling is performed", with normal optimization and global register
// allocation, and Linpack's official 4x unrolling.
func defaultOpts(b benchmarks.Benchmark) compiler.Options {
	return compiler.Options{Level: compiler.O4, Unroll: b.DefaultUnroll}
}

// benchLabel renders the figure label (linpack.unroll4x).
func benchLabel(b benchmarks.Benchmark) string {
	if b.DefaultUnroll > 1 {
		return fmt.Sprintf("%s.unroll%dx", b.Name, b.DefaultUnroll)
	}
	return b.Name
}

// table is a tiny fixed-width text table builder.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) {
	if t.rows == nil {
		// One allocation up front instead of the append doubling ladder;
		// the sweep tables run one row per benchmark or per degree.
		t.rows = make([][]string, 0, 16)
	}
	t.rows = append(t.rows, cells)
}

func (t *table) render() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	lineWidth := 1 // newline
	for _, w := range widths {
		lineWidth += w + 2
	}
	var b strings.Builder
	b.Grow((len(t.rows) + 2) * lineWidth)
	// Cells are padded with explicit space runs rather than per-cell
	// fmt.Fprintf("%-*s") — the boxing and verb parsing in fmt were a top
	// allocation site of the sweep render path. Every column is padded,
	// including the last, matching the previous output byte for byte.
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for k := len(c); k < widths[i]; k++ {
				b.WriteByte(' ')
			}
		}
		b.WriteString("\n")
	}
	line(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		for k := 0; k < w; k++ {
			b.WriteByte('-')
		}
	}
	b.WriteString("\n")
	for _, row := range t.rows {
		line(row)
	}
	return b.String()
}

// fmtF formats a float compactly ("%.2f", including NaN/±Inf spellings),
// without fmt's interface boxing.
func fmtF(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

// fmtI formats an integer table cell.
func fmtI(v int) string { return strconv.Itoa(v) }

// sortedNames of a benchmark slice.
func sortedNames(bs []benchmarks.Benchmark) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name
	}
	sort.Strings(out)
	return out
}
