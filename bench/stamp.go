package bench

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// Stamp identifies the conditions of one run, so two results can be
// judged comparable (or not) by their stamps alone.
type Stamp struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"vcs_revision"`
	Modified   bool    `json:"vcs_modified"`
	LoadAvg1   float64 `json:"loadavg_1m"`
	Started    string  `json:"started"`
}

func newStamp(cfg Config) Stamp {
	st := Stamp{
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Revision: "unknown",
		Started: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				st.Revision = s.Value
			case "vcs.modified":
				st.Modified = s.Value == "true"
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			st.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return st
}

// peakRSSMB returns a process's peak resident set size (VmHWM) in
// megabytes; pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: VmHWM: %w", path, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}
