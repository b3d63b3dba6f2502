package workload

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"mdspec/internal/emu"
)

func TestNamesCount(t *testing.T) {
	if got := len(Names()); got != 18 {
		t.Fatalf("suite has %d benchmarks, want 18 (Table 1)", got)
	}
	if got := len(IntNames()); got != 8 {
		t.Errorf("SPECint analogs = %d, want 8", got)
	}
	if got := len(FPNames()); got != 10 {
		t.Errorf("SPECfp analogs = %d, want 10", got)
	}
}

func TestProfileLookup(t *testing.T) {
	p, err := ProfileByName("126.gcc")
	if err != nil || p.Name != "126.gcc" {
		t.Fatalf("lookup by full name failed: %v", err)
	}
	p, err = ProfileByName("126")
	if err != nil || p.Name != "126.gcc" {
		t.Fatalf("lookup by paper shorthand failed: %v", err)
	}
	if _, err := ProfileByName("999.nope"); err == nil {
		t.Fatal("unknown benchmark should error")
	}
	if p, err := ProfileByName("102"); err != nil || p.Name != "102.swim" {
		t.Errorf("lookup of 102 by paper shorthand: %q, %v", p.Name, err)
	}
}

func TestAllBenchmarksBuildAndRun(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			p, err := Build(name)
			if err != nil {
				t.Fatal(err)
			}
			m := emu.New(p)
			var d emu.DynInst
			for i := 0; i < 50_000; i++ {
				if !m.Step(&d) {
					t.Fatalf("workload halted after %d instructions; must run forever", i)
				}
			}
		})
	}
}

func TestMixMatchesTable1(t *testing.T) {
	// The achieved dynamic load/store fractions must track the paper's
	// Table 1 within a reasonable calibration tolerance.
	const tol = 0.045
	for _, name := range Names() {
		pr, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(pr.Name, func(t *testing.T) {
			mix := Measure(MustBuild(pr.Name), 60_000)
			if d := math.Abs(mix.LoadFrac() - pr.LoadFrac); d > tol {
				t.Errorf("load fraction %.3f, target %.3f (|d|=%.3f)", mix.LoadFrac(), pr.LoadFrac, d)
			}
			if d := math.Abs(mix.StoreFrac() - pr.StoreFrac); d > tol {
				t.Errorf("store fraction %.3f, target %.3f (|d|=%.3f)", mix.StoreFrac(), pr.StoreFrac, d)
			}
		})
	}
}

func TestNearDependencesTrackProfile(t *testing.T) {
	// compress (TrueDepFrac .30) must show far more near-dependence
	// loads than mgrid (.02): this drives the Table 4 misspec spread.
	hi := Measure(MustBuild("129.compress"), 60_000)
	lo := Measure(MustBuild("107.mgrid"), 60_000)
	if hi.NearDepFrac() < lo.NearDepFrac()*2 {
		t.Errorf("compress near-dep %.3f should be well above mgrid %.3f",
			hi.NearDepFrac(), lo.NearDepFrac())
	}
}

func TestFPWorkloadsUseFPUnits(t *testing.T) {
	fp := Measure(MustBuild("102.swim"), 40_000)
	in := Measure(MustBuild("126.gcc"), 40_000)
	if fp.FPOps == 0 {
		t.Error("swim should execute FP operations")
	}
	if in.FPOps > fp.FPOps/10 {
		t.Errorf("gcc FP ops (%d) should be negligible vs swim (%d)", in.FPOps, fp.FPOps)
	}
}

func TestPointerChasingTracksProfile(t *testing.T) {
	li := Measure(MustBuild("130.li"), 40_000)
	swim := Measure(MustBuild("102.swim"), 40_000)
	if li.PointerLoads == 0 {
		t.Error("li should have pointer-chasing loads")
	}
	if swim.PointerLoads > li.PointerLoads/4 {
		t.Errorf("swim pointer loads (%d) should be far below li (%d)", swim.PointerLoads, li.PointerLoads)
	}
}

func TestCallsTrackProfile(t *testing.T) {
	vortex := Measure(MustBuild("147.vortex"), 40_000)
	mgrid := Measure(MustBuild("107.mgrid"), 40_000)
	if vortex.Calls == 0 {
		t.Error("vortex should make calls")
	}
	if mgrid.Calls != 0 {
		t.Errorf("mgrid should be call-free, has %d", mgrid.Calls)
	}
}

func TestGenerationDeterministic(t *testing.T) {
	a := MustBuild("134.perl")
	b := MustBuild("134.perl")
	if len(a.Code) != len(b.Code) {
		t.Fatalf("non-deterministic build: %d vs %d insts", len(a.Code), len(b.Code))
	}
	for i := range a.Code {
		if a.Code[i] != b.Code[i] {
			t.Fatalf("instruction %d differs: %v vs %v", i, a.Code[i], b.Code[i])
		}
	}
}

func TestGenerateRejectsBadProfiles(t *testing.T) {
	first, err := ProfileByName(Names()[0])
	if err != nil {
		t.Fatal(err)
	}
	bad := first
	bad.FootprintWords = 1000 // not a power of two
	if _, err := Generate(bad); err == nil {
		t.Error("non-power-of-two footprint should be rejected")
	}
	bad = first
	bad.BranchEvery = 1
	if _, err := Generate(bad); err == nil {
		t.Error("tiny BranchEvery should be rejected")
	}
}

// TestGenerateRejectsOversizedFootprint feeds Generate footprints whose
// arenas cannot fit between DataBase and StackBase, the way a hostile
// JSON profile would. Each must fail fast with an error instead of
// wrapping the arena size or filling billions of words.
func TestGenerateRejectsOversizedFootprint(t *testing.T) {
	for _, words := range []int{1 << 27, 1 << 28, 1 << 29} {
		p, err := ParseProfile([]byte(fmt.Sprintf(`{"name":"huge","footprintWords":%d}`, words)))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = Generate(p)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("footprint of %d words was accepted", words)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("footprint of %d words allocated %d bytes before failing", words, grew)
		}
	}
}

// TestGenerateRejectsTooManyInstructions: a profile with one branch in
// 20,000 instructions lays out 164,370 static instructions, more than
// prog.MaxInsts, and Generate returns the assembler's error for it.
func TestGenerateRejectsTooManyInstructions(t *testing.T) {
	p, err := ParseProfile([]byte(`{"name":"big","branchEvery":20000}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(p); err == nil || !strings.Contains(err.Error(), "instructions") {
		t.Fatalf("Generate of a 164,370-instruction profile: err = %v, want the instruction limit", err)
	}
}

func TestKernelRecurrenceDependences(t *testing.T) {
	mix := Measure(KernelRecurrence(0), 20_000)
	if mix.NearDepFrac() < 0.9 {
		t.Errorf("recurrence near-dep fraction %.3f, want ~1", mix.NearDepFrac())
	}
	// Halting variant stops.
	m := emu.New(KernelRecurrence(10))
	var d emu.DynInst
	steps := 0
	for m.Step(&d) {
		steps++
		if steps > 1000 {
			t.Fatal("halting recurrence did not halt")
		}
	}
}

func TestKernelStreamNoTrueDeps(t *testing.T) {
	mix := Measure(KernelStream(0), 20_000)
	if mix.NearDepLoads != 0 {
		t.Errorf("stream kernel has %d near-dependence loads, want 0", mix.NearDepLoads)
	}
	if mix.Loads == 0 || mix.Stores == 0 {
		t.Error("stream kernel should load and store")
	}
}

func TestKernelTaskBoundaryShape(t *testing.T) {
	p := KernelTaskBoundary(32, 100)
	// The dynamic body must be exactly 32 instructions: successive loads
	// of the global are 32 apart.
	m := emu.New(p)
	var d emu.DynInst
	var loadSeqs []int64
	for m.Step(&d) {
		if d.IsLoad() {
			loadSeqs = append(loadSeqs, d.Seq)
		}
	}
	if len(loadSeqs) < 3 {
		t.Fatal("too few loads")
	}
	for i := 1; i < len(loadSeqs); i++ {
		if got := loadSeqs[i] - loadSeqs[i-1]; got != 32 {
			t.Fatalf("load spacing %d, want 32 (body misaligned)", got)
		}
	}
}

func TestKernelPointerChaseCyclic(t *testing.T) {
	m := emu.New(KernelPointerChase(64, 0))
	var d emu.DynInst
	seen := make(map[uint32]int)
	for i := 0; i < 64*4*4; i++ {
		if !m.Step(&d) {
			t.Fatal("chase halted")
		}
		if d.IsLoad() && d.Inst.Rd == d.Inst.Rs1 { // the next-pointer load
			seen[d.Addr]++
		}
	}
	if len(seen) != 64 {
		t.Errorf("visited %d distinct nodes, want 64 (cycle must cover the list)", len(seen))
	}
}

func TestRngBounds(t *testing.T) {
	r := newRng(42)
	f := func(n uint16) bool {
		nn := int(n%1000) + 1
		v := r.intn(nn)
		return v >= 0 && v < nn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChanceExtremes(t *testing.T) {
	r := newRng(7)
	for i := 0; i < 100; i++ {
		if r.chance(0) {
			t.Fatal("chance(0) fired")
		}
		if !r.chance(1) {
			t.Fatal("chance(1) did not fire")
		}
	}
}

func TestParseNames(t *testing.T) {
	// Whitespace around commas is what users actually type on a CLI.
	got, err := ParseNames("126.gcc, 099.go ,102.swim")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"126.gcc", "099.go", "102.swim"}
	if len(got) != len(want) {
		t.Fatalf("ParseNames = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ParseNames = %v, want %v", got, want)
		}
	}
	// Trailing comma is tolerated; the empty field is dropped.
	if got, err := ParseNames("126.gcc,"); err != nil || len(got) != 1 {
		t.Errorf("trailing comma: %v, %v", got, err)
	}
	// A misspelled name fails up front and names the valid set.
	if _, err := ParseNames("126.gc"); err == nil {
		t.Error("misspelled benchmark should be rejected")
	} else if !strings.Contains(err.Error(), "126.gcc") {
		t.Errorf("error should list valid names: %v", err)
	}
	if _, err := ParseNames(" , "); err == nil {
		t.Error("empty list should be rejected")
	}
}
