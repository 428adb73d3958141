package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ilp/internal/benchmarks"
	"ilp/internal/experiments"
	"ilp/internal/isa"
	"ilp/internal/lang/interp"
	"ilp/internal/lang/parser"
	"ilp/internal/lang/sem"
	"ilp/internal/store"
)

// goldenPath is the archived `ilpbench all` stdout every sweep must
// reproduce byte for byte, relative to the checkout root.
const goldenPath = "docs/ilpbench-output.txt"

// sweep is the paper_sweep and stored_sweep workloads.
type sweep struct {
	stored bool
	dir    string // stored_sweep: where each repetition's store lives
	cfg    experiments.Config

	golden []byte                 // the rendition every sweep must print
	interp map[string][]isa.Value // benchmark -> the reference interpreter's output
}

// setup is the work a run does before its timed phase: it reads the golden
// rendition and runs the reference interpreter on every benchmark (the
// front end, parser.Parse and sem.Analyze, then interp.Run), whose output
// every stored cell must reproduce. Traced, each call gets a span. The
// timed repetitions each start from their own cold runner, and
// stored_sweep opens its fresh store inside the timed phase, as the first
// thing `ilpbench -store` does.
func (s *sweep) setup(tr *tracer, l *layers) error {
	// The runner configuration `ilpbench` builds for its default flags.
	s.cfg = experiments.Config{MaxDegree: 8, Retries: 2, MaxBackoff: 250 * time.Millisecond, Degrade: true}
	var err error
	if s.golden, err = os.ReadFile(goldenPath); err != nil {
		return err
	}
	root := tr.begin(0, "setup", "")
	defer tr.end(root)
	s.interp = map[string][]isa.Value{}
	var parse, analyze, interpret float64
	for _, b := range benchmarks.All() {
		sp := tr.begin(root, "parser.Parse", b.Name)
		tree, err := parser.Parse(b.Source)
		parse += tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		sp = tr.begin(root, "sem.Analyze", b.Name)
		info, err := sem.Analyze(tree)
		analyze += tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		sp = tr.begin(root, "interp.Run", b.Name)
		s.interp[b.Name], err = interp.Run(info)
		interpret += tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: interpreter: %w", b.Name, err)
		}
	}
	l.add("lang.parse_s", parse)
	l.add("lang.sem_s", analyze)
	l.add("lang.interp_s", interpret)
	return nil
}

func (s *sweep) rep(ctx context.Context, tr *tracer, l *layers) (tally, error) {
	root := tr.begin(0, "rep", "")
	defer tr.end(root)
	if !s.stored {
		r := experiments.NewRunner(s.cfg)
		out, rep, err := runAll(ctx, r, tr, root, l)
		recordRunner(l, r)
		return s.check("sweep", out, rep, err), nil
	}

	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return tally{}, err
	}
	defer os.RemoveAll(s.dir)
	path := filepath.Join(s.dir, "results.jsonl")

	// Write phase: `ilpbench -store f` on a fresh store.
	wspan := tr.begin(root, "phase", "write")
	t, _, err := s.storedPhase(ctx, path, tr, wspan, l, true)
	l.add("experiments.write_s", tr.end(wspan))
	if err != nil {
		return t, err
	}

	// Resume phase: `ilpbench -store f -resume` on the completed store.
	rspan := tr.begin(root, "phase", "resume")
	u, rep, err := s.storedPhase(ctx, path, tr, rspan, l, false)
	l.add("experiments.resume_s", tr.end(rspan))
	if err != nil {
		return t, err
	}
	if rep.Live > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: resume simulated %d cells live, want 0\n", rep.Live)
		u.failed += int(min(rep.Live, int64(u.attempted-u.failed)))
	}
	t.add(u)
	l.add("experiments.resumed_cells", float64(rep.Resumed))
	l.add("experiments.resume_live_sims", float64(rep.Live))
	if fi, err := os.Stat(path); err == nil {
		l.add("store.bytes", float64(fi.Size()))
	}
	return t, nil
}

// storedPhase runs one sweep against the store at path: a fresh one when
// write is set, else the one the write phase completed. The runner's
// counters and the per-experiment times come from the write phase, the
// store's from the resume phase, whose open loads every record.
func (s *sweep) storedPhase(ctx context.Context, path string, tr *tracer, parent int, l *layers, write bool) (tally, experiments.SweepReport, error) {
	phase, wl, rl := "resume", (*layers)(nil), l
	if write {
		phase, wl, rl = "write", l, nil
	}
	sp := tr.begin(parent, "store.Open", phase)
	st, err := store.Open(path)
	rl.add("store.open_s", tr.end(sp))
	if err != nil {
		return tally{}, experiments.SweepReport{}, err
	}
	defer st.Close()
	if write && st.Len() > 0 {
		return tally{}, experiments.SweepReport{}, fmt.Errorf("store %s is not fresh: %d records", path, st.Len())
	}
	rl.add("store.records", float64(st.Len()))
	cfg := s.cfg
	cfg.Store = st
	r := experiments.NewRunner(cfg)
	out, rep, err := runAll(ctx, r, tr, parent, wl)
	recordRunner(wl, r)
	t := s.check(phase, out, rep, err)
	if !write {
		t.add(s.checkOutputs(st.Records()))
	}
	return t, rep, st.Close()
}

// checkOutputs holds every committed cell's printed output to the
// reference interpreter's. Carefully unrolled code reassociates floating
// point reductions, so floats compare to a relative 1e-9, as the
// compiler's differential tests do.
func (s *sweep) checkOutputs(recs []store.Record) tally {
	t := tally{attempted: len(recs)}
	for _, rec := range recs {
		var res struct{ Output []isa.Value }
		err := json.Unmarshal(rec.Payload, &res)
		want := s.interp[rec.Benchmark]
		ok := err == nil && len(res.Output) == len(want)
		for i := 0; ok && i < len(want); i++ {
			ok = res.Output[i].ApproxEqual(want[i], 1e-9)
		}
		if !ok {
			t.failed++
			fmt.Fprintf(os.Stderr, "perfbench: stored cell %s/%s (%s): output differs from the interpreter\n",
				rec.Benchmark, rec.Machine, rec.Experiment)
		}
	}
	return t
}

// runAll renders the whole sweep into a buffer with Runner.RunAll's loop,
// which it copies only to put a span around each Runner.RunCtx call; it
// runs the same way traced and untraced, where the spans are no-ops.
func runAll(ctx context.Context, r *experiments.Runner, tr *tracer, parent int, l *layers) ([]byte, experiments.SweepReport, error) {
	var (
		buf      bytes.Buffer
		errs     []error
		rendered int
		failed   []string
	)
	report := func() experiments.SweepReport {
		rep := r.Report()
		rep.Experiments, rep.Failed = rendered, failed
		return rep
	}
	for _, e := range experiments.Experiments() {
		sp := tr.begin(parent, "experiments.RunCtx", e.ID)
		res, err := r.RunCtx(ctx, e.ID)
		l.add("experiments."+e.ID+".s", tr.end(sp))
		if err != nil {
			err = fmt.Errorf("%s: %w", e.ID, err)
			if ctx.Err() != nil {
				return buf.Bytes(), report(), err
			}
			failed = append(failed, e.ID)
			errs = append(errs, err)
			continue
		}
		rendered++
		fmt.Fprintf(&buf, "==== %s: %s ====\n\n%s\n", res.ID, res.Title, res.Text)
	}
	return buf.Bytes(), report(), errors.Join(errs...)
}

// check scores one rendered sweep: its cells are the checks, a degraded
// cell fails, and a failed experiment or any byte of difference from the
// golden rendition fails them all.
func (s *sweep) check(phase string, out []byte, rep experiments.SweepReport, err error) tally {
	t := tally{attempted: max(rep.Cells, 1), failed: int(rep.Degraded)}
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", phase, err)
		t.failed = t.attempted
	case len(rep.Failed) > 0:
		fmt.Fprintf(os.Stderr, "perfbench: %s: experiments failed: %v\n", phase, rep.Failed)
		t.failed = t.attempted
	case !bytes.Equal(out, s.golden):
		fmt.Fprintf(os.Stderr, "perfbench: %s: rendition differs from %s at %s\n", phase, goldenPath, firstDiff(s.golden, out))
		t.failed = t.attempted
	}
	return t
}

// recordRunner adds the runner's own counters to the per-layer values.
func recordRunner(l *layers, r *experiments.Runner) {
	st := r.Stats()
	for name, v := range map[string]int64{
		"compiles": st.Compiles, "compile_hits": st.CompileHits, "sims": st.Sims, "sim_hits": st.SimHits,
		"batched_cells": st.BatchedCells, "predecodes": st.Predecodes, "superblocks": st.Superblocks,
		"cond_traces": st.CondTraces, "mispath_exits": st.MispathExits, "sim_instructions": st.Instructions,
	} {
		l.add("experiments."+name, float64(v))
	}
	if n := st.Compiles + st.CompileHits; n > 0 {
		l.add("experiments.compile_hit_ratio", float64(st.CompileHits)/float64(n))
	}
}
