package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Metric is one measured number with the samples behind it. Value is
// the metric as defined (a median or a percentile of the samples);
// N, Q1, Median and Q3 describe the samples, so two results can be
// compared by their spread as well as their value.
type Metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// percentileMetric is the q-quantile of samples. Without samples it
// has N == 0, and the run drops it.
func percentileMetric(q float64, unit string, samples []float64) Metric {
	s := sorted(samples)
	if len(s) == 0 {
		return Metric{Unit: unit}
	}
	return Metric{Value: quantile(s, q), Unit: unit, N: len(s),
		Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75)}
}

// medianMetric is the median of samples.
func medianMetric(unit string, samples []float64) Metric {
	return percentileMetric(0.5, unit, samples)
}

// countMetric is a single exact observation.
func countMetric(v float64, unit string) Metric {
	return medianMetric(unit, []float64{v})
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between the closest ranks of sorted,
// non-empty samples.
func quantile(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// Spec is BENCHMARK.json: the workloads and the metrics every run must
// print, with the bound by which each end-to-end metric may worsen.
type Spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []WorkloadSpec `json:"workloads"`
	EndToEnd   []MetricSpec   `json:"end_to_end"`
	PerLayer   []MetricSpec   `json:"per_layer"`
}

// WorkloadSpec names a workload and records why it exists.
type WorkloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// MetricSpec declares one metric.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// LoadSpec reads BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Line is the one-line result the benchmark prints last: exactly the
// end-to-end metrics of the spec (or, for a traced run, the per-layer
// ones), each with its value and unit. A metric the run did not
// compute, or computed in another unit, is an error.
func (r *Result) Line(spec *Spec, traced bool) ([]byte, error) {
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(want))
	for _, ms := range want {
		m, ok := r.Metrics[ms.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", r.Workload, ms.Name)
		}
		if m.Unit != ms.Unit {
			return nil, fmt.Errorf("workload %s measured %s in %s, BENCHMARK.json says %s", r.Workload, ms.Name, m.Unit, ms.Unit)
		}
		metrics[ms.Name] = value{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

// Report prints the human-readable result: the run stamp, every metric
// with its unit, bound (end-to-end metrics) and sample statistics, the
// per-layer self times of a traced run, and the correctness verdict.
func (r *Result) Report(w io.Writer, spec *Spec) {
	st := r.Stamp
	fmt.Fprintf(w, "stamp: workload=%s seed=%d seconds=%g trace=%v nproc=%d gomaxprocs=%d go=%s rev=%s loadavg1=%.2f\n",
		r.Workload, st.Seed, st.Seconds, st.Trace, st.NumCPU, st.GOMAXPROCS, st.GoVersion, st.Revision, st.LoadAvg1)
	bounds := make(map[string]float64)
	for _, ms := range spec.EndToEnd {
		bounds[ms.Name] = ms.Bound
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics { //md:orderindependent sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		bound := ""
		if b, ok := bounds[name]; ok {
			bound = fmt.Sprintf(" bound=%g", b)
		}
		fmt.Fprintf(w, "metric %s = %.6g %s%s n=%d q1=%.6g median=%.6g q3=%.6g\n",
			name, m.Value, m.Unit, bound, m.N, m.Q1, m.Median, m.Q3)
	}
	for _, lt := range r.SelfTime {
		fmt.Fprintf(w, "self_time %s = %.4f s (%.1f%%)\n", lt.Layer, lt.Seconds, 100*lt.Share)
	}
	fmt.Fprintf(w, "correctness: %s\n", r.Correctness)
}
