package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The tests run from the checkout root, as run.sh runs the program.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

type benchFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestDeclaredMetrics holds the program's metric lists and meta.json to
// BENCHMARK.json: same names, same units, and a stated target for every
// per-layer metric.
func TestDeclaredMetrics(t *testing.T) {
	bf := loadBenchFile(t)
	want := map[string]string{}
	for _, m := range bf.EndToEnd {
		want[m.Name] = m.Unit
	}
	got := map[string]string{}
	for _, m := range endToEnd {
		got[m.name] = m.unit
	}
	sameMetrics(t, "end-to-end", want, got)

	want, got = map[string]string{}, map[string]string{}
	for _, m := range bf.PerLayer {
		want[m.Name] = m.Unit
	}
	for _, m := range perLayer() {
		got[m.name] = m.unit
	}
	sameMetrics(t, "per-layer", want, got)

	data, err := os.ReadFile("perfbench/meta.json")
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		Targets map[string]struct{ Moves, Workload string } `json:"per_layer_targets"`
	}
	if err := json.Unmarshal(data, &meta); err != nil {
		t.Fatal(err)
	}
	for _, m := range bf.PerLayer {
		// The metric's own key, else the longest "<prefix>.*" key above it.
		tg, ok := meta.Targets[m.Name]
		for p := m.Name; !ok && strings.Contains(p, "."); {
			p = p[:strings.LastIndexByte(p, '.')]
			tg, ok = meta.Targets[p+".*"]
		}
		if !ok || tg.Moves == "" || tg.Workload == "" {
			t.Errorf("meta.json gives no target for per-layer metric %s", m.Name)
		}
	}
}

func sameMetrics(t *testing.T, kind string, want, got map[string]string) {
	t.Helper()
	for n, u := range want {
		if got[n] != u {
			t.Errorf("%s metric %s: program has unit %q, BENCHMARK.json %q", kind, n, got[n], u)
		}
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			t.Errorf("%s metric %s is not in BENCHMARK.json", kind, n)
		}
	}
}

// TestShortestRuns runs every workload at the shortest length in both
// modes and checks that the result line carries exactly the declared
// metrics with their units, that every check passed, and that the CPU
// shares partition the profile.
func TestShortestRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	bf := loadBenchFile(t)
	for _, w := range bf.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				code := run([]string{"--workload", w.Name, "--seed", "7", "--seconds", "1", "--trace", trace}, &out, &errb)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %v, %d of %d checks failed", res.Correct, res.Failed, res.Attempted)
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range bf.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range bf.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				got := map[string]string{}
				for n, m := range res.Metrics {
					got[n] = m.Unit
				}
				sameMetrics(t, "emitted", want, got)
				if trace == "1" {
					sum := 0.0
					for _, b := range cpuBuckets {
						sum += res.Metrics["cpu."+b].Value
					}
					if math.Abs(sum-1) > 1e-9 {
						t.Errorf("cpu shares sum to %v, want 1", sum)
					}
				}
			})
		}
	}
}

// corrupted is a workload whose references are damaged after they are
// built, as a defect in the program would make its outputs differ.
type corrupted struct {
	workload
	damage func()
}

func (c corrupted) setup(tr *tracer, l *layers) error {
	err := c.workload.setup(tr, l)
	c.damage()
	return err
}

func TestFlippedGoldenByteFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full sweep")
	}
	s := &sweep{}
	res, err := measure(corrupted{s, func() { s.golden[len(s.golden)/2] ^= 1 }}, "paper_sweep", 1, 1, false, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("a flipped golden byte passed: correct %v, %d of %d checks failed", res.Correct, res.Failed, res.Attempted)
	}
}

func TestWrongInterpreterValueFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full sweep")
	}
	s := &sweep{stored: true, dir: filepath.Join(outDir, "stores", "test")}
	damage := func() {
		v := &s.interp["linpack"][0]
		v.I++
		v.F += 1 + math.Abs(v.F)
	}
	res, err := measure(corrupted{s, damage}, "stored_sweep", 1, 1, false, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("a wrong interpreter value passed: correct %v, %d of %d checks failed", res.Correct, res.Failed, res.Attempted)
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string // innermost first
		want  string
	}{
		{[]string{"runtime.memclrNoHeapPointers", "ilp/internal/sim.(*Engine).Reset", "ilp/internal/sim.RunCtx"}, "sim.reset"},
		{[]string{"ilp/internal/sim.(*Engine).runFast", "ilp/internal/sim.RunCtx", "ilp/internal/experiments.(*Runner).measure"}, "sim"},
		{[]string{"runtime.mallocgc", "ilp/internal/compiler/sched.Schedule", "ilp/internal/compiler.Compile"}, "compiler"},
		{[]string{"ilp/internal/lang/parser.(*parser).expr"}, "lang"},
		{[]string{"ilp/internal/machine.(*Config).Fingerprint", "ilp/internal/experiments.compileKey"}, "other"},
		{[]string{"bytes.Equal", "main.(*sweep).check", "main.main"}, "other"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
