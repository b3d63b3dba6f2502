// Package workload provides the 18 synthetic SPEC'95-analog benchmarks
// used to reproduce the paper's experiments, plus a handful of named
// micro-kernels. SPEC'95 binaries and inputs are not redistributable (and
// no MIPS toolchain is assumed), so each benchmark is generated from a
// Profile that captures the properties the paper's results actually
// depend on: the dynamic load/store fractions of Table 1, the prevalence
// and distance of true (in-window) store→load dependences, pointer-chase
// versus streaming access patterns, branch predictability, call/spill
// behaviour, and data footprint.
package workload

import (
	"fmt"
	"sort"
	"strings"
)

// Profile parameterizes one synthetic benchmark.
type Profile struct {
	// Name follows the paper's Table 1 ("126.gcc", ...).
	Name string
	// FP marks SPECfp'95 analogs (FP-typed data and functional units).
	FP bool

	// LoadFrac and StoreFrac are the target dynamic fractions (Table 1).
	LoadFrac  float64
	StoreFrac float64

	// TrueDepFrac is the fraction of loads that read data written by a
	// recent (usually in-window) store — the loads that make naive
	// speculation misspeculate (calibrated against Table 4's NAV rates).
	TrueDepFrac float64
	// DepDistance is the typical store→load distance in dynamic
	// instructions for those true dependences.
	DepDistance int

	// PointerFrac is the fraction of loads whose address depends on a
	// previously loaded value (pointer chasing: li, gcc, perl).
	PointerFrac float64

	// BranchEvery is the average number of instructions per conditional
	// branch; BranchNoise is the fraction of those branches whose
	// direction is data-dependent (hard to predict).
	BranchEvery int
	BranchNoise float64

	// CallFrac is the fraction of blocks containing a call to a helper
	// that spills and reloads registers on the stack.
	CallFrac float64

	// FootprintWords sizes the streaming read arena (power of two).
	FootprintWords int

	// Seed makes generation deterministic per benchmark.
	Seed uint64
}

// profiles lists the 18 SPEC'95 programs of Table 1 in paper order.
// Load/store fractions are Table 1's; the dependence/branch knobs are
// calibrated so the suite reproduces the qualitative spread of Tables 3
// and 4 (which programs misspeculate a lot under NAV, which are
// dominated by false dependences).
var profiles = []Profile{
	{Name: "099.go", LoadFrac: .209, StoreFrac: .073, TrueDepFrac: .28, DepDistance: 20,
		PointerFrac: .15, BranchEvery: 6, BranchNoise: .35, CallFrac: .25, FootprintWords: 1 << 16, Seed: 99},
	{Name: "124.m88ksim", LoadFrac: .188, StoreFrac: .096, TrueDepFrac: .04, DepDistance: 40,
		PointerFrac: .10, BranchEvery: 7, BranchNoise: .15, CallFrac: .40, FootprintWords: 1 << 14, Seed: 124},
	{Name: "126.gcc", LoadFrac: .243, StoreFrac: .175, TrueDepFrac: .08, DepDistance: 25,
		PointerFrac: .25, BranchEvery: 6, BranchNoise: .30, CallFrac: .35, FootprintWords: 1 << 17, Seed: 126},
	{Name: "129.compress", LoadFrac: .217, StoreFrac: .135, TrueDepFrac: .21, DepDistance: 12,
		PointerFrac: .05, BranchEvery: 8, BranchNoise: .25, CallFrac: .10, FootprintWords: 1 << 15, Seed: 129},
	{Name: "130.li", LoadFrac: .296, StoreFrac: .176, TrueDepFrac: .30, DepDistance: 10,
		PointerFrac: .35, BranchEvery: 7, BranchNoise: .20, CallFrac: .45, FootprintWords: 1 << 14, Seed: 130},
	{Name: "132.ijpeg", LoadFrac: .177, StoreFrac: .087, TrueDepFrac: .08, DepDistance: 45,
		PointerFrac: .05, BranchEvery: 12, BranchNoise: .10, CallFrac: .10, FootprintWords: 1 << 16, Seed: 132},
	{Name: "134.perl", LoadFrac: .256, StoreFrac: .166, TrueDepFrac: .26, DepDistance: 14,
		PointerFrac: .25, BranchEvery: 7, BranchNoise: .25, CallFrac: .40, FootprintWords: 1 << 15, Seed: 134},
	{Name: "147.vortex", LoadFrac: .263, StoreFrac: .273, TrueDepFrac: .30, DepDistance: 14,
		PointerFrac: .20, BranchEvery: 8, BranchNoise: .15, CallFrac: .50, FootprintWords: 1 << 17, Seed: 147},

	{Name: "101.tomcatv", FP: true, LoadFrac: .319, StoreFrac: .088, TrueDepFrac: .05, DepDistance: 50,
		BranchEvery: 20, BranchNoise: .05, FootprintWords: 1 << 17, Seed: 101},
	{Name: "102.swim", FP: true, LoadFrac: .270, StoreFrac: .066, TrueDepFrac: .04, DepDistance: 60,
		BranchEvery: 25, BranchNoise: .03, FootprintWords: 1 << 17, Seed: 102},
	{Name: "103.su2cor", FP: true, LoadFrac: .338, StoreFrac: .101, TrueDepFrac: .07, DepDistance: 40,
		BranchEvery: 18, BranchNoise: .05, FootprintWords: 1 << 17, Seed: 103},
	{Name: "104.hydro2d", FP: true, LoadFrac: .297, StoreFrac: .082, TrueDepFrac: .12, DepDistance: 20,
		BranchEvery: 18, BranchNoise: .05, FootprintWords: 1 << 16, Seed: 104},
	{Name: "107.mgrid", FP: true, LoadFrac: .466, StoreFrac: .030, TrueDepFrac: .02, DepDistance: 75,
		BranchEvery: 30, BranchNoise: .02, FootprintWords: 1 << 17, Seed: 107},
	{Name: "110.applu", FP: true, LoadFrac: .314, StoreFrac: .079, TrueDepFrac: .06, DepDistance: 40,
		BranchEvery: 20, BranchNoise: .04, FootprintWords: 1 << 17, Seed: 110},
	{Name: "125.turb3d", FP: true, LoadFrac: .213, StoreFrac: .146, TrueDepFrac: .03, DepDistance: 35,
		BranchEvery: 15, BranchNoise: .08, CallFrac: .15, FootprintWords: 1 << 16, Seed: 125},
	{Name: "141.apsi", FP: true, LoadFrac: .314, StoreFrac: .134, TrueDepFrac: .12, DepDistance: 35,
		BranchEvery: 16, BranchNoise: .06, FootprintWords: 1 << 16, Seed: 141},
	{Name: "145.fpppp", FP: true, LoadFrac: .488, StoreFrac: .175, TrueDepFrac: .10, DepDistance: 45,
		BranchEvery: 40, BranchNoise: .05, FootprintWords: 1 << 14, Seed: 145},
	{Name: "146.wave5", FP: true, LoadFrac: .302, StoreFrac: .130, TrueDepFrac: .08, DepDistance: 35,
		BranchEvery: 18, BranchNoise: .05, FootprintWords: 1 << 17, Seed: 146},
}

// Names returns the benchmark names in the paper's Table 1 order.
func Names() []string {
	out := make([]string, len(profiles))
	for i, p := range profiles {
		out[i] = p.Name
	}
	return out
}

// ParseNames parses a comma-separated benchmark list as typed on a CLI:
// whitespace around each name is trimmed, empty fields are dropped, and
// every name is validated against the Table 1 suite up front so a typo
// fails immediately (naming the valid set) instead of deep inside a
// sweep — or worse, being silently misclassified by downstream int/fp
// aggregation.
func ParseNames(s string) ([]string, error) {
	known := make(map[string]bool, len(profiles))
	for _, p := range profiles {
		known[p.Name] = true
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		name := strings.TrimSpace(f)
		if name == "" {
			continue
		}
		if !known[name] {
			return nil, fmt.Errorf("workload: unknown benchmark %q (valid: %s)",
				name, strings.Join(Names(), ", "))
		}
		out = append(out, name)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("workload: empty benchmark list %q", s)
	}
	return out, nil
}

// IntNames returns the SPECint'95 analog names.
func IntNames() []string { return filterNames(false) }

// FPNames returns the SPECfp'95 analog names.
func FPNames() []string { return filterNames(true) }

func filterNames(fp bool) []string {
	var out []string
	for _, p := range profiles {
		if p.FP == fp {
			out = append(out, p.Name)
		}
	}
	return out
}

// ProfileByName looks up a benchmark profile.
func ProfileByName(name string) (Profile, error) {
	for _, p := range profiles {
		if p.Name == name {
			return p, nil
		}
	}
	// Accept the paper's shorthand (first number component).
	for _, p := range profiles {
		if shortName(p.Name) == name {
			return p, nil
		}
	}
	known := Names()
	sort.Strings(known)
	return Profile{}, fmt.Errorf("workload: unknown benchmark %q (known: %v)", name, known)
}

// shortName returns the numeric prefix the paper uses ("126" for
// "126.gcc").
func shortName(full string) string {
	for i := 0; i < len(full); i++ {
		if full[i] == '.' {
			return full[:i]
		}
	}
	return full
}
