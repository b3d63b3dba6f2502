package config

import (
	"testing"

	"mdspec/internal/mdp"
)

func TestPolicyNamesRoundTrip(t *testing.T) {
	for _, p := range []Policy{NoSpec, Naive, Selective, StoreBarrier, Sync, Oracle, StoreSets} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("round trip failed for %v: %v, %v", p, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("ParsePolicy should reject unknown names")
	}
	// Case-insensitive, as users type on the CLI.
	if p, err := ParsePolicy("sync"); err != nil || p != Sync {
		t.Error("ParsePolicy should be case-insensitive")
	}
}

func TestConfigNames(t *testing.T) {
	cases := []struct {
		cfg  Machine
		want string
	}{
		{Default128().WithPolicy(NoSpec), "NAS/NO"},
		{Default128().WithPolicy(Sync), "NAS/SYNC"},
		{Default128().WithPolicy(Naive).WithAddressScheduler(0), "AS/NAV"},
		{Default128().WithPolicy(Naive).WithAddressScheduler(2), "AS/NAV+2"},
		{Default128().WithPolicy(Naive).WithSplitWindow(4), "SPLIT:NAS/NAV"},
	}
	for _, c := range cases {
		if got := c.cfg.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

func TestMachineHash(t *testing.T) {
	a := Default128().WithPolicy(Sync)
	b := Default128().WithPolicy(Sync)
	if a.Hash() != b.Hash() {
		t.Error("identical configs must hash equal")
	}
	if len(a.Hash()) != 16 {
		t.Errorf("hash %q should be 16 hex chars", a.Hash())
	}
	// Name() is lossy (both of these render as "NAS/SYNC"); the hash
	// must still distinguish them.
	c := Default128().WithPolicy(Sync)
	c.PredictorTable.Entries *= 2
	if a.Name() != c.Name() {
		t.Fatalf("test premise broken: names differ (%q vs %q)", a.Name(), c.Name())
	}
	if a.Hash() == c.Hash() {
		t.Error("configs differing only in MDPT size must hash differently")
	}
	if a.Hash() == Default128().WithPolicy(Naive).Hash() {
		t.Error("different policies must hash differently")
	}
}

func TestDefault128MatchesTable2(t *testing.T) {
	m := Default128()
	if m.Window != 128 || m.FetchWidth != 8 || m.IssueWidth != 8 ||
		m.MemPorts != 4 || m.BranchesPerCycle != 4 || m.FrontEndDepth != 4 {
		t.Errorf("Default128 deviates from Table 2: %+v", m)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("default must validate: %v", err)
	}
}

func TestSmall64Matches32Section(t *testing.T) {
	m := Small64()
	if m.Window != 64 || m.IssueWidth != 4 || m.MemPorts != 2 || m.IntALUs != 2 {
		t.Errorf("Small64 deviates from §3.2's description: %+v", m)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("small machine must validate: %v", err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := func(mut func(*Machine)) Machine {
		m := Default128()
		mut(&m)
		return m
	}
	cases := []Machine{
		bad(func(m *Machine) { m.Window = 0 }),
		bad(func(m *Machine) { m.IssueWidth = 0 }),
		bad(func(m *Machine) { m.MemPorts = 0 }),
		bad(func(m *Machine) { m.FPUnits = 0 }),
		bad(func(m *Machine) { m.SchedulerLatency = -1 }),
		Default128().WithSplitWindow(1),
		Default128().WithSplitWindow(3), // does not divide 128
		Default128().WithPolicy(Sync).WithAddressScheduler(0),
		bad(func(m *Machine) { m.Window = MaxWindow + 1 }),
		bad(func(m *Machine) { m.BranchesPerCycle = 0 }),
		Default128().WithPolicy(Naive).WithAddressScheduler(1 << 20),
		Default128().WithPolicy(Naive).WithAddressScheduler(MaxSchedulerLatency + 1),
		Default128().WithPolicy(Policy(99)),
		bad(func(m *Machine) { m.Policy, m.PredictorTable.Assoc = Sync, 0 }),
		bad(func(m *Machine) { m.PredictorTable.Entries, m.PredictorTable.Assoc = 1, 2 }),
		bad(func(m *Machine) { m.PredictorTable.Entries, m.PredictorTable.Assoc = 4096, 3 }),
		bad(func(m *Machine) { m.PredictorTable.Entries = 12 }), // 6 sets
		bad(func(m *Machine) { m.PredictorTable.Entries = 2 * MaxPredictorEntries }),
		bad(func(m *Machine) { m.FrontEndDepth = -1 }),
		bad(func(m *Machine) { m.FrontEndDepth = MaxFrontEndDepth + 1 }),
		bad(func(m *Machine) { m.FrontEndDepth = 1 << 40 }), // ends in the deadlock watchdog
		bad(func(m *Machine) { m.SquashOverhead = -1 }),
		bad(func(m *Machine) { m.SquashOverhead = MaxSquashOverhead + 1 }),
		bad(func(m *Machine) { m.Policy, m.SquashOverhead = Naive, 1<<40 }), // ends in the deadlock watchdog
		bad(func(m *Machine) { m.LSQSize = MaxWindow + 1 }),
		bad(func(m *Machine) { *m = m.WithSplitWindow(2); m.LSQSize = 16 }), // younger tasks fill the LSQ
	}
	for i, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d should fail validation: %+v", i, m)
		}
	}
	// The caps themselves are valid.
	atCaps := Default128().WithPolicy(Naive).WithAddressScheduler(MaxSchedulerLatency)
	atCaps.Window = MaxWindow
	atCaps.PredictorTable = mdp.TableConfig{Entries: MaxPredictorEntries, Assoc: 4}
	atCaps.FrontEndDepth, atCaps.SquashOverhead, atCaps.LSQSize = MaxFrontEndDepth, MaxSquashOverhead, MaxWindow
	if err := atCaps.Validate(); err != nil {
		t.Errorf("config at the caps should validate: %v", err)
	}
}

func TestWithHelpersDoNotMutate(t *testing.T) {
	base := Default128()
	_ = base.WithPolicy(Sync)
	_ = base.WithAddressScheduler(2)
	_ = base.WithSplitWindow(4)
	if base.Policy != NoSpec || base.UseAddressScheduler || base.SplitWindow {
		t.Error("With* helpers must return copies")
	}
}
