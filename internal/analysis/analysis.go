// Package analysis implements mdvet's static-analysis layer: a small
// framework mirroring the golang.org/x/tools/go/analysis API plus the
// project analyzers that guard the simulator's two load-bearing
// guarantees — determinism (golden equivalence, recording replay) and
// the zero-allocation warm cycle.
//
// The module is dependency-free, so the framework is built on the
// standard library alone: packages are enumerated and compiled with
// `go list -export`, parsed with go/parser, and type-checked with
// go/types against gc export data (see load.go). The Analyzer/Pass
// surface is kept deliberately close to go/analysis so the analyzers
// can be lifted onto the real framework if the dependency ever becomes
// available.
//
// Analyzers communicate with the code under analysis through //md:
// directive comments (see directives.go):
//
//	//md:hotpath          function must not allocate, nor anything it calls
//	//md:allocok <why>    exempt one site or function from hotpathalloc
//	//md:orderindependent <why>  exempt a map iteration from determinism
//	//md:statsstruct      the stats struct whose fields statsguard tracks
//	//md:statssink        a serialization function statsguard checks
package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and test fixtures.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// ProgramLevel analyzers run once per loaded Program (Pass.Pkg is
	// nil) and may inspect every package; package-level analyzers run
	// once per analyzed package.
	ProgramLevel bool
	// Packages, when non-empty, restricts a package-level analyzer to
	// the listed module-relative package paths (determinism to the
	// reproducibility core, ctxflow to request-scoped code).
	Packages []string
	// Run executes the check, reporting findings through the Pass.
	Run func(*Pass) error
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// A Pass carries one analyzer invocation's inputs.
type Pass struct {
	Analyzer *Analyzer
	// Pkg is the package under analysis (nil for program-level runs).
	Pkg *Package
	// Program holds every package loaded for this run: the analyzed
	// targets and all their in-module dependencies, type-checked from
	// source.
	Program *Program
	report  func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Program.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// All returns the full mdvet analyzer suite, in order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, HotPathAlloc, StatsGuard, GuardedBy, ColParity, CtxFlow, ErrDiscard}
}

// ByName resolves analyzer names (comma- or space-separated) against
// candidates, preserving candidate order.
func ByName(names string, candidates []*Analyzer) ([]*Analyzer, error) {
	want := map[string]bool{}
	for _, n := range strings.FieldsFunc(names, func(r rune) bool { return r == ',' || r == ' ' }) {
		if n != "" {
			want[n] = true
		}
	}
	var out []*Analyzer
	for _, a := range candidates {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	if len(want) > 0 {
		var unknown []string
		for n := range want {
			unknown = append(unknown, n)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown analyzer(s): %s", strings.Join(unknown, ", "))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return out, nil
}

// DeterministicPackages lists the module-relative package paths whose
// behavior must be bit-reproducible: the simulation core, the
// functional emulator, the dependence predictors, the statistics they
// produce, and the robustness layer (atomic artifact writes, the retry
// schedule, the fault-injection harness) whose decisions must not
// depend on wall clock, map order, or goroutine scheduling — resume
// equivalence and reproducible fault tests hinge on it. The determinism
// analyzer is applied to exactly these.
var DeterministicPackages = []string{
	"internal/atomicio",
	"internal/ckpt",
	"internal/core",
	"internal/emu",
	"internal/faultinject",
	"internal/mdp",
	"internal/retry",
	"internal/stats",
}

// Run loads the packages matching patterns under dir and applies the
// analyzers: package-level ones to each matched package (respecting
// each Analyzer.Packages scope), program-level ones once. It returns
// the sorted findings.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	prog, err := LoadProgram(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	collect := func(d Diagnostic) { diags = append(diags, d) }
	for _, a := range analyzers {
		if a.ProgramLevel {
			pass := &Pass{Analyzer: a, Program: prog, report: collect}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
			continue
		}
		for _, pkg := range prog.Targets {
			if !inScope(prog, pkg, a.Packages) {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, Program: prog, report: collect}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// inScope applies an analyzer's Packages restriction (empty scope
// means every package).
func inScope(prog *Program, pkg *Package, scope []string) bool {
	if len(scope) == 0 {
		return true
	}
	for _, rel := range scope {
		if pkg.Path == prog.ModulePath+"/"+rel {
			return true
		}
	}
	return false
}
