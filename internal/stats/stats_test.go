package stats

import (
	"strings"
	"testing"
)

func TestDerivedMetrics(t *testing.T) {
	r := Run{
		Cycles: 1000, Committed: 2500,
		CommittedLoads: 500, Misspeculations: 5,
		FalseDepLoads: 100, FalseDepDelay: 1500,
		Branches: 200, BranchMispredicts: 10,
	}
	if got := r.IPC(); got != 2.5 {
		t.Errorf("IPC = %v", got)
	}
	if got := r.MisspecRate(); got != 0.01 {
		t.Errorf("misspec = %v", got)
	}
	if got := r.FalseDepRate(); got != 0.2 {
		t.Errorf("FD = %v", got)
	}
	if got := r.FalseDepLatency(); got != 15 {
		t.Errorf("RL = %v", got)
	}
	if got := r.BranchMissRate(); got != 0.05 {
		t.Errorf("bmiss = %v", got)
	}
}

func TestZeroDenominators(t *testing.T) {
	var r Run
	if r.IPC() != 0 || r.MisspecRate() != 0 || r.FalseDepRate() != 0 ||
		r.FalseDepLatency() != 0 || r.BranchMissRate() != 0 {
		t.Error("zero-value Run should produce zero metrics, not NaN")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean should be 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("mean = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Header: []string{"name", "value"}}
	tb.Add("beta", "2")
	tb.Add("alpha", "1")
	out := tb.String()
	if !strings.Contains(out, "name") || !strings.Contains(out, "beta") {
		t.Fatalf("missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, rule, two rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "----") {
		t.Error("second line should be the rule")
	}
}

func TestTableRaggedRowsAlign(t *testing.T) {
	// Rows wider than the header used to be crammed into the last header
	// column's width, misaligning every extra column.
	tb := &Table{Header: []string{"name", "v"}}
	tb.Add("a", "1", "extra-wide-cell", "tail")
	tb.Add("b", "2", "x", "y")
	lines := strings.Split(strings.TrimRight(tb.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), tb.String())
	}
	// Both data rows must place the 4th column at the same offset.
	tail1 := strings.Index(lines[2], "tail")
	tail2 := strings.Index(lines[3], "y")
	if tail1 < 0 || tail1 != tail2 {
		t.Errorf("ragged columns misaligned (%d vs %d):\n%s", tail1, tail2, tb.String())
	}
}

func TestRunString(t *testing.T) {
	r := Run{Config: "NAS/SYNC", Workload: "126.gcc", Cycles: 10, Committed: 25}
	s := r.String()
	if !strings.Contains(s, "NAS/SYNC") || !strings.Contains(s, "126.gcc") ||
		!strings.Contains(s, "2.500") {
		t.Errorf("String() = %q", s)
	}
}
