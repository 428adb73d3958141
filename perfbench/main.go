// Command perfbench is the repository's benchmark. One invocation runs one
// workload, checks every output it produces against the repository's
// references, and prints its metrics as a JSON object on the last line of
// standard output:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds this package from the checkout's sources and runs it from
// the checkout root. The workloads are the paper's whole sweep, as
// `ilpbench all` runs it:
//
//   - paper_sweep: a cold experiments.Runner with ilpbench's default
//     configuration (the batched simulation path), RunAll into a buffer;
//   - stored_sweep: the same sweep through a fresh result store (the serial,
//     fsync'd path), then a second cold runner resuming from that store.
//
// Both are the paper's fixed suite, so the seed does not change them.
//
// With --trace 0 the timed repetitions run untraced and the result carries
// the end-to-end metrics. With --trace 1 untraced and traced repetitions
// alternate; the traced ones record spans around the calls into each layer
// and a CPU profile, and the result carries the per-layer metrics,
// including the tracing overhead (traced minus untraced wall time). Any
// failed check makes the exit status 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ilp/internal/experiments"
)

// outDir holds everything a run leaves behind (the binary, the build cache,
// span files, scratch stores), relative to the checkout root.
const outDir = ".bench_build/perfbench"

// tally counts a repetition's checks: each attempted cell, rendition or
// reference comparison, and how many of them failed.
type tally struct{ attempted, failed int }

func (t *tally) add(u tally) { t.attempted += u.attempted; t.failed += u.failed }

// setupsPerRep is how many times a run sets the workload up before each
// timed repetition; setup_s is the median over the run. Spreading the
// set-ups over the run, instead of timing them all at its start, lets them
// see the same host as the repetitions.
const setupsPerRep = 5

// workload is one benchmark workload; the tests wrap it to damage its
// references. setup prepares the references the repetitions are checked
// against. rep runs one timed repetition. tr and l are nil when untraced;
// traced, both record their spans and per-layer values.
type workload interface {
	setup(tr *tracer, l *layers) error
	rep(ctx context.Context, tr *tracer, l *layers) (tally, error)
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "paper_sweep":
		return &sweep{}, nil
	case "stored_sweep":
		return &sweep{stored: true, dir: filepath.Join(outDir, "stores", fmt.Sprint(os.Getpid()))}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper_sweep or stored_sweep)", name)
}

// procs is the GOMAXPROCS the benchmark runs at, so the runner's default
// worker count (GOMAXPROCS) is 1. On a host of a few vCPUs shared with other
// tenants, a sweep spread over every vCPU waits whenever the host takes any
// one of them away, and its wall time follows the host's load; at one
// worker it tracks its own CPU time. On a 2-vCPU host one worker ran the
// sweep no slower than two.
const procs = 1

func main() {
	runtime.GOMAXPROCS(procs)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "paper_sweep or stored_sweep")
	seed := fs.Int64("seed", 1, "workload seed (the sweeps are the paper's fixed suite and ignore it)")
	seconds := fs.Float64("seconds", 10, "how long the timed repetitions run")
	trace := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	w, err := newWorkload(*name)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stderr, "perfbench: host nproc=%d GOMAXPROCS=%d %s; workload %s seed %d trace %d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *name, *seed, *trace)

	res, err := measure(w, *name, *seed, *seconds, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "perfbench: %d checks, %d failed (failed_frac %g)\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics with their units, in the order of
// BENCHMARK.json.
var endToEnd = []metricDef{
	{"wall_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MB"}, {"alloc_mb", "MB"}, {"setup_s", "s"},
}

// measure runs timed repetitions, each after setupsPerRep set-ups of the
// workload, for about seconds (at least one; in a traced run at least one
// untraced and one traced), and reduces each metric to the median over
// the repetitions.
func measure(w workload, name string, seed int64, seconds float64, traced bool, stderr io.Writer) (*result, error) {
	ctx := context.Background()
	var (
		tr *tracer
		l  *layers
	)
	if traced {
		tr = newTracer(fmt.Sprintf("%s-seed%d-%d", name, seed, time.Now().UnixNano()))
		l = newLayers()
	}

	var (
		total                        tally
		setups                       []float64
		wall, cpu, rss, alloc, tWall []float64
		gcCycles, gcPause            []float64
		prof                         = map[string]float64{}
		start                        = time.Now()
		haveUntraced, haveTraced     bool
	)
	for i := 0; ; i++ {
		iter := time.Now()
		for range setupsPerRep {
			t0 := time.Now()
			if err := w.setup(tr, l); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		traceRep := traced && i%2 == 1
		rssReset := prepareRep()
		if !rssReset {
			fmt.Fprintln(stderr, "perfbench: warning: cannot reset the peak-RSS counter through /proc/self/clear_refs;"+
				" peak_rss_mb is the high-water mark since the process started, not the per-repetition peak")
		}
		u0 := readUsage()
		var (
			t   tally
			err error
		)
		if traceRep {
			t, err = profiled(prof, func() (tally, error) { return w.rep(ctx, tr, l) })
		} else {
			t, err = w.rep(ctx, nil, nil)
		}
		u1 := readUsage()
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i, err)
		}
		total.add(t)
		d := u1.sub(u0)
		if traceRep {
			tWall = append(tWall, d.wall)
			haveTraced = true
		} else {
			wall = append(wall, d.wall)
			cpu = append(cpu, d.cpu)
			alloc = append(alloc, d.allocMB)
			rss = append(rss, peakRSSMB(rssReset))
			gcCycles = append(gcCycles, d.gcCycles)
			gcPause = append(gcPause, d.gcPause)
			haveUntraced = true
		}
		fmt.Fprintf(stderr, "perfbench: rep %d traced=%v wall %.3fs cpu %.3fs alloc %.0fMB checks %d failed %d; set-up median %.4fs\n",
			i, traceRep, d.wall, d.cpu, d.allocMB, t.attempted, t.failed, median(setups[len(setups)-setupsPerRep:]))
		// Stop once the run has what it reports and another iteration like
		// this one would end past the time budget, so a run never overshoots
		// it by more than its first repetitions.
		if time.Since(start)+time.Since(iter) > time.Duration(seconds*float64(time.Second)) && haveUntraced && (haveTraced || !traced) {
			break
		}
	}

	res := &result{Correct: total.failed == 0, Attempted: total.attempted, Failed: total.failed, Metrics: map[string]metric{}}
	if res.Attempted == 0 {
		return nil, errors.New("workload attempted no checks")
	}
	if !traced {
		vals := map[string]float64{
			"wall_s": median(wall), "cpu_s": median(cpu), "peak_rss_mb": median(rss),
			"alloc_mb": median(alloc), "setup_s": median(setups),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		return res, nil
	}

	l.set("gc.cycles", median(gcCycles))
	l.set("gc.pause_s", median(gcPause))
	l.set("trace.untraced_wall_s", median(wall))
	l.set("trace.wall_s", median(tWall))
	l.set("trace.overhead_s", median(tWall)-median(wall))
	var samples float64
	for _, n := range prof {
		samples += n
	}
	for _, b := range cpuBuckets {
		if samples > 0 {
			l.set("cpu."+b, prof[b]/samples)
		}
	}
	for _, d := range perLayer() {
		res.Metrics[d.name] = metric{l.value(d.name), d.unit}
	}
	path, err := tr.write()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "perfbench: %d spans written to %s; %.0f CPU samples; tracing overhead %.3fs\n",
		len(tr.spans), path, samples, median(tWall)-median(wall))
	return res, nil
}

// layers collects per-layer values, one per traced repetition (or set-up),
// and reports each as its median. A metric whose layer the workload does
// not exercise reads 0. A nil *layers (an untraced run) drops every value.
type layers struct{ vals map[string][]float64 }

func newLayers() *layers { return &layers{vals: map[string][]float64{}} }

func (l *layers) add(name string, v float64) {
	if l != nil {
		l.vals[name] = append(l.vals[name], v)
	}
}

func (l *layers) set(name string, v float64) { l.vals[name] = []float64{v} }

func (l *layers) value(name string) float64 {
	if vs := l.vals[name]; len(vs) > 0 {
		return median(vs)
	}
	return 0
}

type metricDef struct{ name, unit string }

// perLayer lists the per-layer metrics with their units, in the order of
// BENCHMARK.json.
func perLayer() []metricDef {
	var out []metricDef
	for _, id := range experiments.IDs() {
		out = append(out, metricDef{"experiments." + id + ".s", "s"})
	}
	for _, n := range []string{"compiles", "compile_hits"} {
		out = append(out, metricDef{"experiments." + n, "count"})
	}
	out = append(out, metricDef{"experiments.compile_hit_ratio", "ratio"})
	for _, n := range []string{"sims", "sim_hits", "batched_cells", "predecodes", "superblocks",
		"cond_traces", "mispath_exits", "sim_instructions"} {
		out = append(out, metricDef{"experiments." + n, "count"})
	}
	out = append(out,
		metricDef{"lang.parse_s", "s"}, metricDef{"lang.sem_s", "s"}, metricDef{"lang.interp_s", "s"},
		metricDef{"experiments.write_s", "s"}, metricDef{"experiments.resume_s", "s"},
		metricDef{"experiments.resumed_cells", "count"}, metricDef{"experiments.resume_live_sims", "count"},
		metricDef{"store.open_s", "s"}, metricDef{"store.records", "count"}, metricDef{"store.bytes", "bytes"},
	)
	for _, b := range cpuBuckets {
		out = append(out, metricDef{"cpu." + b, "share"})
	}
	out = append(out,
		metricDef{"gc.cycles", "count"}, metricDef{"gc.pause_s", "s"},
		metricDef{"trace.wall_s", "s"}, metricDef{"trace.untraced_wall_s", "s"}, metricDef{"trace.overhead_s", "s"},
	)
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// firstDiff names the first differing line of two renditions, for the
// failure report on standard error.
func firstDiff(want, got []byte) string {
	wl, gl := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("want %d lines, got %d", len(wl), len(gl))
}
