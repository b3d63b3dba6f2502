package experiments

import "testing"

// paperNavMisspec is Table 4's NAV column (misspeculations per committed
// load under NAS/NAV, 128-entry window).
var paperNavMisspec = map[string]float64{
	"099.go": .025, "124.m88ksim": .010, "126.gcc": .013, "129.compress": .078,
	"130.li": .032, "132.ijpeg": .008, "134.perl": .029, "147.vortex": .032,
	"101.tomcatv": .010, "102.swim": .009, "103.su2cor": .024, "104.hydro2d": .055,
	"107.mgrid": .001, "110.applu": .014, "125.turb3d": .007, "141.apsi": .021,
	"145.fpppp": .014, "146.wave5": .020,
}

// paperFD is Table 3's FD column (fraction of loads delayed by false
// dependences under NAS/NO).
var paperFD = map[string]float64{
	"099.go": .264, "124.m88ksim": .599, "126.gcc": .390, "129.compress": .703,
	"130.li": .442, "132.ijpeg": .703, "134.perl": .598, "147.vortex": .672,
	"101.tomcatv": .612, "102.swim": .910, "103.su2cor": .796, "104.hydro2d": .852,
	"107.mgrid": .454, "110.applu": .454, "125.turb3d": .770, "141.apsi": .775,
	"145.fpppp": .887, "146.wave5": .836,
}

// TestCalibrationAgainstTable4 is a regression net for the workload
// tuning: each benchmark's NAV misspeculation rate must stay within a
// loose band of the paper's Table 4 (a factor of 4 plus one percentage
// point of absolute slack — tight enough to catch an accidental
// re-tuning, loose enough for synthetic analogs).
func TestCalibrationAgainstTable4(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep is slow")
	}
	r := NewRunner(Options{Insts: 60_000})
	rows, err := Figure2(bg, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		paper := paperNavMisspec[row.Bench]
		got := row.NaiveMisspec
		lo, hi := paper/4-0.01, paper*4+0.01
		if got < lo || got > hi {
			t.Errorf("%s: NAV misspec %.4f outside calibration band [%.4f, %.4f] (paper %.4f)",
				row.Bench, got, lo, hi, paper)
		}
	}
}

// TestCalibrationAgainstTable3 keeps the false-dependence fractions in a
// loose band of Table 3.
func TestCalibrationAgainstTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep is slow")
	}
	r := NewRunner(Options{Insts: 60_000})
	rows, err := Table3(bg, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		paper := paperFD[row.Bench]
		if row.FD < paper/3 || row.FD > min1(paper*2.5+0.1) {
			t.Errorf("%s: FD %.3f drifted too far from the paper's %.3f",
				row.Bench, row.FD, paper)
		}
	}
}

func min1(v float64) float64 {
	if v > 1 {
		return 1
	}
	return v
}

// TestSummaryShapeRegression pins the §4 orderings that EXPERIMENTS.md
// documents, at a fast budget: ORACLE > NAV > nothing over NO; SYNC
// within two points of ORACLE; AS/NAV over AS/NO in low single digits.
func TestSummaryShapeRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("summary sweep is slow")
	}
	r := NewRunner(Options{Insts: 60_000})
	rows, err := Summary(bg, r)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]SummaryRow{}
	for _, row := range rows {
		byName[row.Finding] = row
	}
	oracle := byName["NAS/ORACLE over NAS/NO"]
	nav := byName["NAS/NAV over NAS/NO"]
	sync := byName["NAS/SYNC over NAS/NAV"]
	oracleNav := byName["NAS/ORACLE over NAS/NAV"]
	asnav := byName["AS/NAV over AS/NO (0-cycle)"]

	if oracle.IntMeasured < 0.20 || oracle.FPMeasured < 0.40 {
		t.Errorf("oracle gains collapsed: %+v", oracle)
	}
	if nav.IntMeasured < 0.05 || nav.FPMeasured < 0.20 {
		t.Errorf("naive gains collapsed: %+v", nav)
	}
	if oracle.FPMeasured < oracle.IntMeasured {
		t.Error("fp codes should gain more than int codes from the oracle")
	}
	if d := oracleNav.IntMeasured - sync.IntMeasured; d < -0.005 || d > 0.05 {
		t.Errorf("SYNC should trail ORACLE by at most a couple points: sync=%+v oracle=%+v", sync, oracleNav)
	}
	if asnav.IntMeasured < 0.0 || asnav.IntMeasured > 0.15 {
		t.Errorf("AS/NAV over AS/NO out of the paper's low-single-digit regime: %+v", asnav)
	}
}
