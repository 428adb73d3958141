package experiments

import (
	"context"
	"fmt"
	"strings"

	"ilp/internal/compiler"
	"ilp/internal/machine"
	"ilp/internal/metrics"
	"ilp/internal/sim"
	"ilp/internal/statictime"
	"ilp/internal/verify"
)

func init() {
	register("ext-slack", "Extension: static timing bounds vs. simulation", runExtSlack)
}

// runExtSlack quantifies how tight the static timing analysis is: for every
// benchmark × machine cell it reports slack = simulated minor cycles ÷ the
// static lower bound (1.00 means the per-block dependence/width/unit bounds
// explain every cycle; larger means cross-block effects — inter-block
// dependences and branch-entry transients — the per-block analysis cannot
// see). Each cell is also pushed through the verify timing oracle, so a
// bound violation fails the experiment rather than printing a bogus ratio.
//
// The paper's thesis is that available parallelism is a static property of
// the compiled code and the machine; this table measures how much of the
// dynamic cycle count the static analysis already pins down.
func runExtSlack(ctx context.Context, r *Runner) (*Result, error) {
	suite, err := r.Cfg.suite()
	if err != nil {
		return nil, err
	}
	deg := r.Cfg.maxDegree()
	if deg > 4 {
		deg = 4
	}
	cfgs := []*machine.Config{
		machine.Base(),
		machine.IdealSuperscalar(deg),
		machine.Superpipelined(deg),
		machine.SuperscalarWithConflicts(deg),
		machine.MultiTitan(),
	}

	header := []string{"benchmark"}
	for _, m := range cfgs {
		header = append(header, m.Name)
	}
	t := &table{header: header}
	slack := make([][]float64, len(cfgs))

	for _, b := range suite {
		row := []string{benchLabel(b)}
		for mi, m := range cfgs {
			s, err := r.slackCell(ctx, b.Name, defaultOpts(b), m)
			if err != nil {
				return nil, err
			}
			slack[mi] = append(slack[mi], s)
			row = append(row, fmtF(s))
		}
		t.add(row...)
	}

	var b strings.Builder
	b.WriteString("Static-bound tightness: simulated minor cycles / static lower bound\n")
	b.WriteString("(1.00 = the per-block dependence, width and unit bounds explain every cycle):\n\n")
	b.WriteString(t.render())
	b.WriteString("\nMean slack: ")
	series := make([]metrics.Series, len(cfgs))
	for mi, m := range cfgs {
		if mi > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %.2f", m.Name, metrics.ArithmeticMean(slack[mi]))
		series[mi] = metrics.Series{Name: m.Name, X: seq(len(slack[mi])), Y: slack[mi]}
	}
	b.WriteString(".\n")
	b.WriteString("Every cell passed the verify timing oracle (lower <= simulated <= upper);\n" +
		"slack above 1 is the cross-block timing the per-block static analysis cannot see.\n")
	return &Result{ID: "ext-slack", Title: "Static timing bounds", Text: b.String(), Series: series}, nil
}

// slackCell compiles (cached) and simulates one ext-slack cell inside a
// worker slot, on the slot's engine, checks it against the verify timing
// oracle and returns its slack. It is simulated directly, not through the
// measurement cache: the slack ratio needs the per-instruction counts,
// which ordinary measurements do not carry.
func (r *Runner) slackCell(ctx context.Context, bench string, copts compiler.Options, m *machine.Config) (float64, error) {
	e, err := r.acquire(ctx)
	if err != nil {
		return 0, err
	}
	defer r.release(e)
	prog, code, err := r.compile(ctx, e, bench, copts, m, compileKey(bench, copts, m))
	if err != nil {
		return 0, err
	}
	res := new(sim.Result)
	if err := e.RunIntoCtx(ctx, prog, sim.Options{Machine: m, Code: code, CountInstrs: true}, res); err != nil {
		return 0, r.simFailure(ctx, bench, m, err)
	}
	a, err := statictime.Analyze(prog, m)
	if err != nil {
		return 0, fmt.Errorf("ext-slack: %s on %s: %w", bench, m.Name, err)
	}
	if ds := verify.CheckTiming(a, res.MinorCycles, res.InstrCounts, res.TakenExits, "ext-slack"); len(ds) > 0 {
		return 0, fmt.Errorf("ext-slack: %s on %s: static timing oracle: %s", bench, m.Name, ds[0])
	}
	return float64(res.MinorCycles) / float64(a.LowerBound(res.InstrCounts, res.TakenExits)), nil
}
