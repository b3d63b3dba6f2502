package bench

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload, traced, at tiny scale: each must emit
// every metric BENCHMARK.json names, in its unit, with no failed
// operation and all outputs correct, and its spans must round-trip
// through the spans file and nest.
func TestSmoke(t *testing.T) {
	spec, err := LoadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	mdserve := filepath.Join(t.TempDir(), "mdserve")
	if out, err := exec.Command("go", "build", "-o", mdserve, "mdspec/cmd/mdserve").CombinedOutput(); err != nil {
		t.Fatalf("building mdserve: %v\n%s", err, out)
	}
	for _, w := range Workloads() {
		t.Run(w, func(t *testing.T) {
			res, err := Run(context.Background(), Config{
				Workload: w, Seed: 1, Seconds: 1, Trace: true,
				Scale: tinyScale, WorkDir: t.TempDir(), Mdserve: mdserve,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, ms := range append(append([]MetricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
				m, ok := res.Metrics[ms.Name]
				switch {
				case !ok:
					t.Errorf("metric %s not emitted", ms.Name)
				case m.Unit != ms.Unit:
					t.Errorf("metric %s in %s, BENCHMARK.json says %s", ms.Name, m.Unit, ms.Unit)
				}
			}
			for _, traced := range []bool{false, true} {
				if _, err := res.Line(spec, traced); err != nil {
					t.Error(err)
				}
			}
			if res.Failed != 0 || !res.Correct {
				t.Errorf("%d of %d operations failed; correctness: %s", res.Failed, res.Attempted, res.Correctness)
			}

			path := filepath.Join(t.TempDir(), "spans.json")
			if err := WriteSpans(path, res.Spans); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var spans []Span
			if err := json.Unmarshal(data, &spans); err != nil {
				t.Fatal(err)
			}
			if len(spans) == 0 {
				t.Fatal("traced run recorded no spans")
			}
			if err := checkSpans(spans); err != nil {
				t.Error(err)
			}
			for _, lt := range selfTimes(spans) {
				if lt.Seconds < 0 {
					t.Errorf("layer %s has negative self time %v s", lt.Layer, lt.Seconds)
				}
			}
		})
	}
}

// TestSelfTimes checks self time against a hand-built trace: a parent
// whose two overlapping children cover part of it.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "load.request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "server.rtt", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "server.rtt", Start: 40, End: 80},
		{ID: 4, Parent: 3, Name: "core.run", Start: 50, End: 70},
	}
	if err := checkSpans(spans); err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, lt := range selfTimes(spans) {
		got[lt.Layer] = math.Round(lt.Seconds * 1e9)
	}
	want := map[string]float64{"load": 30, "server": 70, "core": 20}
	for layer, ns := range want { //md:orderindependent independent comparisons
		if got[layer] != ns {
			t.Errorf("%s self time %v ns, want %v", layer, got[layer], ns)
		}
	}
	spans[3].End = 90 // now outside its parent
	if checkSpans(spans) == nil {
		t.Error("checkSpans accepted a child that outlives its parent")
	}
}
