package workload

import (
	"os"
	"path/filepath"
	"testing"

	"mdspec/internal/prog"
)

func TestParseProfileDefaults(t *testing.T) {
	p, err := ParseProfile([]byte(`{"name":"custom"}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "custom" || p.LoadFrac != 0.25 || p.FootprintWords != 1<<15 {
		t.Errorf("defaults wrong: %+v", p)
	}
	if _, err := Generate(p); err != nil {
		t.Errorf("default custom profile should generate: %v", err)
	}
}

func TestParseProfileOverrides(t *testing.T) {
	p, err := ParseProfile([]byte(`{
		"name": "hot", "fp": true,
		"loadFrac": 0.4, "storeFrac": 0.05,
		"trueDepFrac": 0.2, "depDistance": 15,
		"branchEvery": 20, "footprintWords": 65536, "seed": 42
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if !p.FP || p.LoadFrac != 0.4 || p.DepDistance != 15 || p.Seed != 42 {
		t.Errorf("overrides lost: %+v", p)
	}
	mix := Measure(mustGenerate(t, p), 40_000)
	if mix.LoadFrac() < 0.35 || mix.LoadFrac() > 0.45 {
		t.Errorf("custom profile load fraction %.3f, want ~0.40", mix.LoadFrac())
	}
}

func mustGenerate(t *testing.T, p Profile) *prog.Program {
	t.Helper()
	pg, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return pg
}

func TestParseProfileBase(t *testing.T) {
	p, err := ParseProfile([]byte(`{"name":"gcc-variant","base":"126.gcc","trueDepFrac":0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := ProfileByName("126.gcc")
	if p.Name != "gcc-variant" || p.LoadFrac != orig.LoadFrac || p.TrueDepFrac != 0.5 {
		t.Errorf("base inheritance wrong: %+v", p)
	}
}

func TestParseProfileErrors(t *testing.T) {
	if _, err := ParseProfile([]byte(`{`)); err == nil {
		t.Error("malformed JSON should error")
	}
	if _, err := ParseProfile([]byte(`{"name":"x","bogusField":1}`)); err == nil {
		t.Error("unknown fields should be rejected")
	}
	if _, err := ParseProfile([]byte(`{"loadFrac":0.3}`)); err == nil {
		t.Error("missing name should error")
	}
	if _, err := ParseProfile([]byte(`{"name":"x","base":"999.no"}`)); err == nil {
		t.Error("unknown base should error")
	}
}

func TestLoadProfileAndRoundTrip(t *testing.T) {
	orig, _ := ProfileByName("102.swim")
	data := []byte(`{"name": "102.swim", "fp": true, "loadFrac": 0.27, "storeFrac": 0.066,
		"trueDepFrac": 0.04, "depDistance": 60, "pointerFrac": 0, "branchEvery": 25,
		"branchNoise": 0.03, "callFrac": 0, "footprintWords": 131072, "seed": 102}`)
	path := filepath.Join(t.TempDir(), "p.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != orig {
		t.Errorf("LoadProfile read\n%+v\nwant 102.swim's profile\n%+v", got, orig)
	}
	if _, err := LoadProfile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file should error")
	}
}
