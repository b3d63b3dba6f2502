package analysis

import (
	"go/ast"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// The fixture module under testdata/src carries `// want "regexp"`
// comments on every line an analyzer must flag; RunFixture diffs both
// directions, so these tests fail on missed findings and on false
// positives alike.

func TestDeterminismFixture(t *testing.T) {
	RunFixture(t, Determinism, filepath.Join("testdata", "src"), "./det/...")
}

func TestHotPathAllocFixture(t *testing.T) {
	RunFixture(t, HotPathAlloc, filepath.Join("testdata", "src"), "./hot/...")
}

func TestStatsGuardFixture(t *testing.T) {
	RunFixture(t, StatsGuard, filepath.Join("testdata", "src"), "./statsbad/...")
}

func TestStatsGuardNoSinkFixture(t *testing.T) {
	RunFixture(t, StatsGuard, filepath.Join("testdata", "src"), "./statsnosink/...")
}

func TestGuardedByFixture(t *testing.T) {
	RunFixture(t, GuardedBy, filepath.Join("testdata", "src"), "./guarded/...")
}

func TestColParityFixture(t *testing.T) {
	RunFixture(t, ColParity, filepath.Join("testdata", "src"), "./colpar/...")
}

func TestCtxFlowFixture(t *testing.T) {
	RunFixture(t, CtxFlow, filepath.Join("testdata", "src"), "./ctxflow/...")
}

func TestErrDiscardFixture(t *testing.T) {
	RunFixture(t, ErrDiscard, filepath.Join("testdata", "src"), "./errdis/...")
}

// wantRe extracts the quoted expectations from a `// want "..." "..."`
// comment, mirroring x/tools' analysistest convention.
var wantRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// RunFixture loads the fixture module rooted at dir, applies the
// analyzer to the packages matching patterns, and diffs the
// diagnostics against the fixtures' `// want "regexp"` comments: every
// diagnostic must match a want on its line, and every want must be
// matched by some diagnostic.
func RunFixture(t *testing.T, a *Analyzer, dir string, patterns ...string) {
	t.Helper()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := LoadProgram(dir, patterns...)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}

	var wants []*expectation
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					wants = append(wants, parseWants(t, prog, c)...)
				}
			}
		}
	}

	var diags []Diagnostic
	collect := func(d Diagnostic) { diags = append(diags, d) }
	run := func(pkg *Package) {
		pass := &Pass{Analyzer: a, Pkg: pkg, Program: prog, report: collect}
		if err := a.Run(pass); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
	}
	if a.ProgramLevel {
		run(nil)
	} else {
		for _, pkg := range prog.Targets {
			run(pkg)
		}
	}

	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %s", w.file, w.line, w.raw)
		}
	}
}

// parseWants reads the expectations out of one comment.
func parseWants(t *testing.T, prog *Program, c *ast.Comment) []*expectation {
	t.Helper()
	text := c.Text
	const marker = "// want "
	if len(text) < len(marker) || text[:len(marker)] != marker {
		return nil
	}
	pos := prog.Fset.Position(c.Pos())
	var out []*expectation
	for _, q := range wantRe.FindAllString(text[len(marker):], -1) {
		pat, err := strconv.Unquote(q)
		if err != nil {
			t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			t.Fatalf("%s:%d: bad want regexp %s: %v", pos.Filename, pos.Line, q, err)
		}
		out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: q})
	}
	if len(out) == 0 {
		t.Fatalf("%s:%d: want comment with no patterns: %s", pos.Filename, pos.Line, text)
	}
	return out
}
