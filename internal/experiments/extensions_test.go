package experiments

import "testing"

func TestExtConflictsShape(t *testing.T) {
	res, err := testRunner().Run("ext-conflicts")
	if err != nil {
		t.Fatal(err)
	}
	ideal, conflict := res.Series[0].Y, res.Series[1].Y
	for i := range ideal {
		if conflict[i] > ideal[i]+1e-9 {
			t.Errorf("benchmark %d: conflicts (%v) beat the ideal machine (%v)", i, conflict[i], ideal[i])
		}
	}
	// The cost must be visible somewhere ("class conflicts can
	// substantially reduce the parallelism").
	hurt := false
	for i := range ideal {
		if conflict[i] < ideal[i]*0.98 {
			hurt = true
		}
	}
	if !hurt {
		t.Error("class conflicts cost nothing on any benchmark")
	}
}

func TestExtVLIWShape(t *testing.T) {
	res, err := testRunner().Run("ext-vliw")
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range res.Series[0].Y {
		if u <= 0 || u > 1.0000001 {
			t.Errorf("benchmark %d: slot utilization %v outside (0,1]", i, u)
		}
		// With parallelism ~2 and width 4, utilization should be well
		// below full.
		if u > 0.9 {
			t.Errorf("benchmark %d: utilization %v implausibly high for width 4", i, u)
		}
	}
}

func TestExtICacheShape(t *testing.T) {
	r := NewRunner(Config{MaxDegree: 8})
	res, err := r.Run("ext-icache")
	if err != nil {
		t.Fatal(err)
	}
	var perfect, cached []float64
	for _, s := range res.Series {
		if s.Name == "linpack.perfect-icache" {
			perfect = s.Y
		} else {
			cached = s.Y
		}
	}
	// Perfect icache: 10x unrolling at least as good as 1x.
	if perfect[3] < perfect[0] {
		t.Errorf("perfect icache: unrolling hurt (%v)", perfect)
	}
	// Limited icache: 10x unrolling declines relative to its own gain
	// with a perfect cache (the §4.4 warning).
	if !(cached[3] < perfect[3]) {
		t.Errorf("limited icache did not hurt 10x unrolling: cached %v vs perfect %v", cached[3], perfect[3])
	}
}

func TestExtSlackShape(t *testing.T) {
	res, err := testRunner().Run("ext-slack")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) == 0 {
		t.Fatal("no series")
	}
	for _, s := range res.Series {
		for i, v := range s.Y {
			// Slack = simulated / lower bound; the oracle inside the
			// experiment already enforced simulated >= lower, so every
			// ratio is at least 1.
			if v < 1 {
				t.Errorf("%s benchmark %d: slack %v below 1", s.Name, i, v)
			}
		}
	}
}

func TestExtLimitsShape(t *testing.T) {
	res, err := testRunner().Run("ext-limits")
	if err != nil {
		t.Fatal(err)
	}
	compiled, blocked, oracle := res.Series[0].Y, res.Series[1].Y, res.Series[2].Y
	for i := range compiled {
		// The compiled result cannot beat the blocked dataflow limit by
		// more than rounding, and the oracle dominates everything.
		if compiled[i] > blocked[i]*1.05 {
			t.Errorf("benchmark %d: compiled %.2f exceeds blocked limit %.2f", i, compiled[i], blocked[i])
		}
		if oracle[i] < blocked[i] {
			t.Errorf("benchmark %d: oracle %.2f below blocked %.2f", i, oracle[i], blocked[i])
		}
	}
}

// TestExtLimitsReusesCompile: the trace limits analyze the binary the
// base-machine cell compiled, taken from the compile cache — one counted
// hit per benchmark, no extra compile.
func TestExtLimitsReusesCompile(t *testing.T) {
	r := NewRunner(Config{MaxDegree: 2, Benchmarks: []string{"whet", "linpack"}})
	if _, err := r.Run("ext-limits"); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Compiles != 4 || st.CompileHits != 2 {
		t.Errorf("compiles = %d (%d hits), want 4 (2 hits): two machines and one cached reuse per benchmark",
			st.Compiles, st.CompileHits)
	}
}
