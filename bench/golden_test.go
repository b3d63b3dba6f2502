package bench

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"sort"
	"testing"

	"mdspec/internal/core"
	"mdspec/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden.json from this build's simulations")

// TestGolden recomputes the digest of every cell cell-timing and
// sweep-warm can run, at full and tiny scale, and compares them with
// golden.json (or, with -update, rewrites it). A change to the
// simulator that moves any statistic shows up here and as failed
// operations in the benchmark.
func TestGolden(t *testing.T) {
	scales := []Scale{FullScale, tinyScale}
	if testing.Short() && !*update {
		scales = scales[1:]
	}
	ctx := context.Background()
	got := Golden{}
	for _, sc := range scales {
		cells, err := cellTimingDigests(ctx, sc.CellInsts)
		if err != nil {
			t.Fatal(err)
		}
		got[goldenSection("cell-timing", sc.CellInsts)] = cells
		e := &env{cfg: Config{Scale: sc}, dir: t.TempDir()}
		s := &sweepWarm{e: e, recdir: t.TempDir()}
		run, err := s.sweep(ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		got[goldenSection("sweep-warm", sc.SweepInsts)] = run.digests
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for section, cells := range got { //md:orderindependent independent comparisons
		keys := make([]string, 0, len(cells))
		for k := range cells { //md:orderindependent sorted below
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if len(want[section]) != len(cells) {
			t.Errorf("%s: golden.json has %d cells, the simulations %d (regenerate with -update)", section, len(want[section]), len(cells))
		}
		for _, k := range keys {
			if w := want[section][k]; w != cells[k] {
				t.Errorf("%s %s: digest %.12s, golden %.12s", section, k, cells[k], w)
			}
		}
	}
}

// cellTimingDigests simulates every cell-timing cell once.
func cellTimingDigests(ctx context.Context, insts int64) (map[string]string, error) {
	benches := workload.Names()
	recs, err := captureRecordings(ctx, benches, insts+recordingSlack)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string)
	for _, b := range benches {
		for _, nc := range timingConfigs() {
			p, err := core.New(nc.Cfg, recs[b].NewReplay())
			if err != nil {
				return nil, err
			}
			run, err := p.Run(insts)
			if err != nil {
				return nil, err
			}
			out[b+"|"+nc.Key] = digest(run)
		}
	}
	return out, nil
}
