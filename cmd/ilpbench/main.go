// Command ilpbench regenerates the paper's tables and figures.
//
// Usage:
//
//	ilpbench [-degree N] [-benchmarks a,b,c] [-workers N] [-timeout D]
//	         [-store file.jsonl] [-resume] [-retries N] [-max-backoff D]
//	         [-degrade] [-faults spec] [experiment ...]
//
// With no experiment arguments it runs everything in paper order. Use
// -list to see the available experiment ids.
//
// The run is cancellable: Ctrl-C (SIGINT) or an elapsed -timeout cancels
// in-flight and queued simulations gracefully — experiments already printed
// stay valid partial output, and -stats still reports counters for the work
// that did happen. A second Ctrl-C kills the process immediately.
//
// Durability: with -store, every committed measurement is appended to a
// checksummed JSONL result store as part of the measurement itself, so an
// interrupted sweep loses nothing it printed. Re-running with -resume
// serves the committed cells from the store and simulates only the rest;
// the stdout of an interrupted-then-resumed sweep is byte-identical to an
// uninterrupted one (per-experiment timings and the varying cache counters
// go to stderr).
//
// Fault tolerance: transiently failed measurements retry with capped
// exponential backoff (-retries, -max-backoff); with -degrade (the
// default) a permanently failed cell renders as a NaN row instead of
// killing the sweep. The exit status is 0 only for a fully clean sweep: 1
// when an experiment failed or flags were bad, 2 when the sweep completed
// but one or more cells degraded.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"ilp/internal/experiments"
	"ilp/internal/fabric"
	"ilp/internal/faultinject"
	"ilp/internal/store"
)

func main() {
	// `ilpbench fabric-worker` is the re-exec entry the -shards fabric
	// coordinator spawns; it speaks the fabric's stdin/stdout protocol
	// and never parses ilpbench flags.
	if len(os.Args) > 1 && os.Args[1] == "fabric-worker" {
		os.Exit(fabric.WorkerMain(os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (exit int) {
	fs := flag.NewFlagSet("ilpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	degree := fs.Int("degree", 8, "maximum superscalar/superpipelining degree to sweep")
	benches := fs.String("benchmarks", "", "comma-separated benchmark subset (default: all eight)")
	workers := fs.Int("workers", 0, "concurrent simulations (default: GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "cancel the whole run after this long, e.g. 30s (0 = no limit)")
	list := fs.Bool("list", false, "list experiment ids and exit")
	stats := fs.Bool("stats", false, "print sweep statistics after the run")
	storePath := fs.String("store", "", "append committed results to this checksummed JSONL store")
	resume := fs.Bool("resume", false, "serve cells already committed to -store instead of refusing a non-empty one")
	retries := fs.Int("retries", 2, "retries per transiently failed compile/measurement")
	maxBackoff := fs.Duration("max-backoff", 250*time.Millisecond, "cap on the exponential retry backoff")
	degrade := fs.Bool("degrade", true, "render permanently failed cells as NaN rows instead of aborting the sweep")
	faults := fs.String("faults", "", `deterministic fault injection spec, e.g. "seed=7,sim=0.3,panic=0.1,store=0.5,slow=0.2,slowdelay=1ms" (testing)`)
	shards := fs.Int("shards", 0, "run the sweep as a crash-tolerant fabric of N supervised worker processes (requires -store; shard stores live beside it)")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if err := validateFlags(fs, *retries, *timeout, *maxBackoff); err != nil {
		fmt.Fprintf(stderr, "ilpbench: %v\n", err)
		fs.Usage()
		return 1
	}

	if *list {
		for _, e := range experiments.Experiments() {
			fmt.Fprintf(stdout, "%-12s %s\n", e.ID, e.Title)
		}
		return 0
	}

	inj, err := parseFaults(*faults)
	if err != nil {
		fmt.Fprintf(stderr, "ilpbench: -faults: %v\n", err)
		return 1
	}
	if *resume && *storePath == "" {
		fmt.Fprintln(stderr, "ilpbench: -resume requires -store")
		return 1
	}

	if *shards > 0 {
		// The fabric path: shard stores (not the merged store) carry the
		// crash-resume state, so -resume has no meaning here, and the
		// merged store is rebuilt from the shards — refuse to clobber
		// prior results exactly as the single-process path does.
		switch {
		case *storePath == "":
			fmt.Fprintln(stderr, "ilpbench: -shards requires -store")
			return 1
		case *resume:
			fmt.Fprintln(stderr, "ilpbench: -shards resumes from its shard stores; drop -resume")
			return 1
		}
		if recs, _, err := store.Load(*storePath); err == nil && len(recs) > 0 {
			fmt.Fprintf(stderr, "ilpbench: store %s already holds %d results; remove the file to re-run sharded\n",
				*storePath, len(recs))
			return 1
		}
		return runSharded(fs.Args(), shardedConfig{
			shards: *shards, storePath: *storePath, degree: *degree,
			benches: *benches, workers: *workers, retries: *retries,
			maxBackoff: *maxBackoff, degrade: *degrade, faults: *faults,
			timeout: *timeout, stats: *stats,
		}, stdout, stderr)
	}

	var st *store.Store
	if *storePath != "" {
		st, err = store.Open(*storePath)
		if err != nil {
			fmt.Fprintf(stderr, "ilpbench: %v\n", err)
			return 1
		}
		defer st.Close()
		if !*resume && st.Len() > 0 {
			fmt.Fprintf(stderr, "ilpbench: store %s already holds %d results; pass -resume to continue from it or remove the file\n",
				*storePath, st.Len())
			return 1
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// Once cancellation starts (first Ctrl-C or timeout), restore default
	// signal handling so a second Ctrl-C terminates immediately.
	context.AfterFunc(ctx, stop)
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := experiments.Config{
		MaxDegree: *degree, Workers: *workers,
		Retries: *retries, MaxBackoff: *maxBackoff,
		Degrade: *degrade, Store: st, Faults: inj,
	}
	if *benches != "" {
		cfg.Benchmarks = strings.Split(*benches, ",")
	}
	runner := experiments.NewRunner(cfg)

	// The stats and degradation accounting run on *every* exit path from
	// here on (deferred, not dangling after the sweep loop): an early
	// return on error or cancellation still reports the counters for the
	// work that did happen, as the doc comment above promises.
	defer func() {
		rep := runner.Report()
		if *stats {
			// The committed/degraded line is resume invariant (identical for a
			// fresh run and an interrupted-then-resumed one); the cache and
			// live/resumed breakdown is not, so it goes to stderr.
			fmt.Fprintf(stdout, "cells: %d committed, %d degraded\n", rep.Cells, rep.Degraded)
			st := runner.Stats()
			fmt.Fprintf(stderr, "cache stats: %d compiles (%d hits), %d simulations (%d hits)\n",
				st.Compiles, st.CompileHits, st.Sims, st.SimHits)
			fmt.Fprintf(stderr, "run stats: %d live simulations, %d resumed from store, %d retry waits, %d cells requested by sweep fan-outs\n",
				rep.Live, rep.Resumed, rep.Retried, rep.BatchedCells)
			fmt.Fprintf(stderr, "predecode stats: %d artifacts built, %d simulations on shared predecode\n",
				rep.Predecodes, rep.PredecodeShared)
			fmt.Fprintf(stderr, "trace stats: %d superblock traces specialized, %d profiled cond traces, %d mispath exits\n",
				rep.Superblocks, rep.CondTraces, rep.MispathExits)
		}
		if exit == 0 && rep.Degraded > 0 {
			fmt.Fprintf(stderr, "ilpbench: %d cell(s) permanently failed and were degraded to NaN rows\n", rep.Degraded)
			exit = 2
		}
	}()

	for _, id := range expandIDs(fs.Args()) {
		start := time.Now()
		res, err := runner.RunCtx(ctx, id)
		if err != nil {
			fmt.Fprintf(stderr, "ilpbench: %s: %v\n", id, err)
			exit = 1
			if ctx.Err() != nil {
				fmt.Fprintln(stderr, "ilpbench: run cancelled; results above are complete, the rest were skipped")
				break
			}
			continue // one broken experiment does not take down the rest
		}
		// The rendition goes to stdout and is resume invariant; the timing
		// varies run to run and goes to stderr.
		fmt.Fprintf(stdout, "==== %s: %s ====\n\n%s\n", res.ID, res.Title, res.Text)
		fmt.Fprintf(stderr, "ilpbench: %s done in %.1fs\n", res.ID, time.Since(start).Seconds())
	}

	return exit
}

// validateFlags rejects flag values that earlier versions silently
// papered over (a negative retry count clamped to zero, a negative
// backoff clamped to the default, a non-positive timeout meaning "no
// limit"): passing them is a usage error, not a request. -timeout 0 is
// the documented "no limit" default, so it is only rejected when the user
// explicitly spelled it.
func validateFlags(fs *flag.FlagSet, retries int, timeout, maxBackoff time.Duration) error {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if retries < 0 {
		return fmt.Errorf("-retries must be >= 0 (have %d)", retries)
	}
	if set["timeout"] && timeout <= 0 {
		return fmt.Errorf("-timeout must be positive (have %v); omit the flag for no limit", timeout)
	}
	if maxBackoff < 0 {
		return fmt.Errorf("-max-backoff must be >= 0 (have %v)", maxBackoff)
	}
	return nil
}

// parseFaults builds the deterministic fault injector from the -faults
// spec. The grammar lives in faultinject.Parse so ilpbench and ilpfab
// accept identical schedules.
func parseFaults(spec string) (*faultinject.Injector, error) {
	return faultinject.Parse(spec)
}

// shardedConfig carries the -shards flag bundle to runSharded.
type shardedConfig struct {
	shards, degree, workers, retries int
	storePath, benches, faults       string
	maxBackoff, timeout              time.Duration
	degrade, stats                   bool
}

// runSharded is the -shards N path: delegate the sweep to the fabric
// coordinator, with this same binary (re-exec'd as `ilpbench
// fabric-worker`) as the worker. Exit codes match the single-process
// contract: 0 clean, 1 failed, 2 completed but degraded.
func runSharded(ids []string, sc shardedConfig, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		self = os.Args[0]
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = nil
	}
	cfg := fabric.Config{
		Shards:      sc.shards,
		StorePath:   sc.storePath,
		MaxDegree:   sc.degree,
		Experiments: ids,
		Workers:     sc.workers,
		Retries:     sc.retries,
		MaxBackoff:  sc.maxBackoff,
		Degrade:     sc.degrade,
		Faults:      sc.faults,
		WorkerArgv:  []string{self, "fabric-worker"},
		Log:         stderr,
	}
	if sc.benches != "" {
		cfg.Benchmarks = strings.Split(sc.benches, ",")
	}
	coord, err := fabric.New(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "ilpbench: %v\n", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	context.AfterFunc(ctx, stop)
	if sc.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, sc.timeout)
		defer cancel()
	}

	sum, err := coord.Run(ctx, stdout)
	if sc.stats {
		fmt.Fprintf(stdout, "cells: %d committed, %d degraded\n", sum.Report.Cells, sum.Report.Degraded)
		fmt.Fprintf(stderr, "fabric stats: %d shards, %d restarts, %d cells merged, %d torn tails repaired\n",
			len(sum.Shards), sum.Restarts, sum.Merge.Records, sum.Merge.TornTails)
	}
	if err != nil {
		fmt.Fprintf(stderr, "ilpbench: %v\n", err)
		return 1
	}
	if sum.Report.Degraded > 0 {
		fmt.Fprintf(stderr, "ilpbench: %d cell(s) permanently failed and were degraded to NaN rows\n", sum.Report.Degraded)
		return 2
	}
	return 0
}

// expandIDs resolves the experiment arguments: no arguments (or the single
// word "all") means every registered experiment in the paper's order.
func expandIDs(args []string) []string {
	if len(args) > 0 && !(len(args) == 1 && args[0] == "all") {
		return args
	}
	all := experiments.Experiments()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	return ids
}
