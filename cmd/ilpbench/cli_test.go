package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quickArgs is the smallest real sweep: one benchmark, degree 2, one
// experiment id, no parallel workers (single CPU CI).
func quickArgs(extra ...string) []string {
	args := []string{"-degree", "2", "-benchmarks", "whet", "-workers", "2"}
	return append(args, extra...)
}

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestCleanSweepExitsZero: a fault-free experiment run renders its banner
// on stdout, keeps timings off stdout, and exits 0.
func TestCleanSweepExitsZero(t *testing.T) {
	code, out, errOut := runCLI(t, append(quickArgs("-stats"), "tab2-1")...)
	if code != 0 {
		t.Fatalf("clean run exited %d\nstderr: %s", code, errOut)
	}
	if !strings.Contains(out, "==== tab2-1:") {
		t.Fatalf("stdout missing rendition:\n%s", out)
	}
	if strings.Contains(out, "done in") || !strings.Contains(errOut, "done in") {
		t.Fatalf("timing must be on stderr only\nstdout: %q\nstderr: %q", out, errOut)
	}
	if !strings.Contains(out, "cells: ") || strings.Contains(out, "cache stats:") {
		t.Fatalf("-stats stdout must carry only the invariant cells line:\n%s", out)
	}
	if !strings.Contains(errOut, "cache stats:") || !strings.Contains(errOut, "run stats:") {
		t.Fatalf("-stats varying breakdown missing from stderr:\n%s", errOut)
	}
}

// TestDegradedSweepExitsNonzero drives the CLI through the fault injector:
// a panic rate of 1 permanently fails every cell, degradation renders NaN
// rows instead of aborting, and the exit status must still be nonzero (2)
// so scripts cannot mistake a degraded sweep for a clean one.
func TestDegradedSweepExitsNonzero(t *testing.T) {
	code, out, errOut := runCLI(t, append(quickArgs(
		"-faults", "seed=1,panic=1", "-retries", "0", "-stats"), "fig4-1")...)
	if code != 2 {
		t.Fatalf("degraded sweep exited %d, want 2\nstderr: %s", code, errOut)
	}
	if !strings.Contains(out, "==== fig4-1:") {
		t.Fatalf("degraded sweep did not render the experiment:\n%s", out)
	}
	if !strings.Contains(out, "NaN") {
		t.Fatalf("degraded cells should render NaN rows:\n%s", out)
	}
	if !strings.Contains(errOut, "degraded") {
		t.Fatalf("stderr does not explain the nonzero exit:\n%s", errOut)
	}
}

// TestFailedExperimentExitsOne: with degradation off, injected faults
// surface as an experiment error and exit 1 — and the sweep still goes on
// to later experiment ids rather than dying at the first.
func TestFailedExperimentExitsOne(t *testing.T) {
	code, out, errOut := runCLI(t, append(quickArgs(
		"-faults", "seed=1,sim=1", "-retries", "0", "-degrade=false"),
		"tab2-1", "fig4-1")...)
	if code != 1 {
		t.Fatalf("failed sweep exited %d, want 1\nstderr: %s", code, errOut)
	}
	if !strings.Contains(errOut, "ilpbench: tab2-1:") || !strings.Contains(errOut, "ilpbench: fig4-1:") {
		t.Fatalf("a failed experiment stopped the sweep instead of continuing:\n%s", errOut)
	}
	if strings.Contains(out, "====") {
		t.Fatalf("no experiment can render when every sim faults:\n%s", out)
	}
}

// TestResumeRoundTrip is the CLI half of the kill-and-resume acceptance
// check: an interrupted sweep (here: a strict subset of experiments
// committed to the store) resumed with -resume produces stdout — including
// the -stats cells line — byte-identical to an uninterrupted sweep.
func TestResumeRoundTrip(t *testing.T) {
	ids := []string{"fig2", "tab2-1", "fig4-1"}
	fresh := append(quickArgs("-stats"), ids...)
	_, want, _ := runCLI(t, fresh...)
	if !strings.Contains(want, "==== fig4-1:") {
		t.Fatalf("reference run incomplete:\n%s", want)
	}

	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	// "Interrupted" leg: only the first two experiments commit to the store.
	code, _, errOut := runCLI(t, append(quickArgs("-store", path, "-stats"), ids[:2]...)...)
	if code != 0 {
		t.Fatalf("partial run exited %d\nstderr: %s", code, errOut)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("partial run committed nothing to the store (%v)", err)
	}

	// Resume leg: the full id list against the same store.
	code, got, errOut := runCLI(t, append(quickArgs("-store", path, "-resume", "-stats"), ids...)...)
	if code != 0 {
		t.Fatalf("resumed run exited %d\nstderr: %s", code, errOut)
	}
	if got != want {
		t.Fatalf("resumed stdout differs from uninterrupted run\nresumed:\n%s\nfresh:\n%s", got, want)
	}
	if !strings.Contains(errOut, "resumed from store") {
		t.Fatalf("resume breakdown missing from stderr:\n%s", errOut)
	}
}

// TestStoreRefusedWithoutResume: an existing non-empty store is refused
// unless -resume is given, so two sweeps cannot silently interleave.
func TestStoreRefusedWithoutResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	if code, _, errOut := runCLI(t, append(quickArgs("-store", path), "tab2-1")...); code != 0 {
		t.Fatalf("first run exited %d\nstderr: %s", code, errOut)
	}
	code, _, errOut := runCLI(t, append(quickArgs("-store", path), "tab2-1")...)
	if code != 1 {
		t.Fatalf("non-empty store without -resume exited %d, want 1", code)
	}
	if !strings.Contains(errOut, "-resume") {
		t.Fatalf("refusal does not mention -resume:\n%s", errOut)
	}
}

// TestResumeRequiresStore: -resume without -store is a usage error.
func TestResumeRequiresStore(t *testing.T) {
	code, _, errOut := runCLI(t, append(quickArgs("-resume"), "fig2")...)
	if code != 1 || !strings.Contains(errOut, "-store") {
		t.Fatalf("-resume without -store: exit %d, stderr %q", code, errOut)
	}
}

// TestParseFaults: the spec grammar round-trips and rejects nonsense.
func TestParseFaults(t *testing.T) {
	if inj, err := parseFaults(""); err != nil || inj != nil {
		t.Fatalf("empty spec: %v %v", inj, err)
	}
	inj, err := parseFaults("seed=7,sim=0.5,panic=0.1,store=1,compile=0,slow=0.2,slowdelay=2ms")
	if err != nil || inj == nil {
		t.Fatalf("full spec rejected: %v", err)
	}
	for _, bad := range []string{
		"sim", "sim=abc", "seed=x", "bogus=0.5", "sim=1.5", "slowdelay=fast",
	} {
		if _, err := parseFaults(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestFlagValidation: out-of-range fault-tolerance flags are usage errors
// (exit 1, message naming the flag) instead of being silently clamped to
// the defaults — a negative -retries used to mean 0 and a negative
// -max-backoff used to mean 250ms, so typos passed unnoticed.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		flag string
		ok   bool
	}{
		{"negative retries", []string{"-retries", "-1"}, "-retries", false},
		{"zero timeout explicit", []string{"-timeout", "0"}, "-timeout", false},
		{"negative timeout", []string{"-timeout", "-5s"}, "-timeout", false},
		{"negative max-backoff", []string{"-max-backoff", "-1ms"}, "-max-backoff", false},
		{"zero retries ok", []string{"-retries", "0"}, "", true},
		{"zero max-backoff ok", []string{"-max-backoff", "0"}, "", true},
		{"positive timeout ok", []string{"-timeout", "30s"}, "", true},
		{"timeout omitted ok", nil, "", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, errOut := runCLI(t, append(quickArgs(tc.args...), "fig2")...)
			if tc.ok {
				if code != 0 {
					t.Fatalf("valid flags %v exited %d\nstderr: %s", tc.args, code, errOut)
				}
				return
			}
			if code != 1 {
				t.Fatalf("bad flags %v exited %d, want 1\nstderr: %s", tc.args, code, errOut)
			}
			if !strings.Contains(errOut, tc.flag) {
				t.Fatalf("usage error does not name %s:\n%s", tc.flag, errOut)
			}
			if !strings.Contains(errOut, "Usage") && !strings.Contains(errOut, "-degree") {
				t.Fatalf("usage error did not print flag usage:\n%s", errOut)
			}
		})
	}
}

// TestStatsPrintedOnFailedSweep: -stats reports the counters for work
// actually done even when every experiment errors out (injected sim
// faults with degradation off), matching the package doc's promise.
func TestStatsPrintedOnFailedSweep(t *testing.T) {
	code, out, errOut := runCLI(t, append(quickArgs(
		"-faults", "seed=1,sim=1", "-retries", "0", "-degrade=false", "-stats"),
		"tab2-1")...)
	if code != 1 {
		t.Fatalf("failed sweep exited %d, want 1\nstderr: %s", code, errOut)
	}
	if !strings.Contains(out, "cells: ") {
		t.Fatalf("failed sweep dropped the -stats cells line from stdout:\n%s", out)
	}
	for _, line := range []string{"cache stats:", "run stats:", "predecode stats:", "trace stats:"} {
		if !strings.Contains(errOut, line) {
			t.Fatalf("failed sweep dropped %q from -stats stderr:\n%s", line, errOut)
		}
	}
}

// TestStatsPrintedOnCancelledSweep: a sweep cut short by -timeout still
// reports its counters — the work done before the deadline is real and
// the operator debugging the hang needs to see it.
func TestStatsPrintedOnCancelledSweep(t *testing.T) {
	code, out, errOut := runCLI(t, append(quickArgs("-timeout", "1ns", "-stats"), "tab2-1", "fig4-1")...)
	if code != 1 {
		t.Fatalf("cancelled sweep exited %d, want 1\nstderr: %s", code, errOut)
	}
	if !strings.Contains(errOut, "cancelled") {
		t.Fatalf("cancellation not reported:\n%s", errOut)
	}
	if !strings.Contains(out, "cells: ") {
		t.Fatalf("cancelled sweep dropped the -stats cells line from stdout:\n%s", out)
	}
	for _, line := range []string{"cache stats:", "run stats:", "predecode stats:", "trace stats:"} {
		if !strings.Contains(errOut, line) {
			t.Fatalf("cancelled sweep dropped %q from -stats stderr:\n%s", line, errOut)
		}
	}
}

// TestBadFlagExitsOne: flag errors are usage errors.
func TestBadFlagExitsOne(t *testing.T) {
	if code, _, _ := runCLI(t, "-no-such-flag"); code != 1 {
		t.Fatalf("bad flag exited %d, want 1", code)
	}
}
