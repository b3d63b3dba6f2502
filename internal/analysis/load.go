package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// A Package is one type-checked source package.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// directives indexes //md: comments by file and line (directives.go).
	directives directiveIndex
}

// A Program is the closed set of source packages one mdvet run
// analyzes: the packages matched by the load patterns (Targets) plus
// every in-module dependency, all type-checked from source against gc
// export data. Standard-library dependencies are imported from export
// data only.
type Program struct {
	Fset       *token.FileSet
	ModulePath string
	// Packages holds all source-loaded packages in dependency order
	// (dependencies before dependents).
	Packages []*Package
	// Targets are the packages the load patterns matched.
	Targets []*Package
	byPath  map[string]*Package
}

// Lookup returns the loaded package with the given import path, or nil.
func (p *Program) Lookup(path string) *Package { return p.byPath[path] }

// listedPackage is the subset of `go list -json` output the loader uses.
type listedPackage struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	Standard   bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
	DepOnly    bool
}

// goList runs `go list` in dir and decodes its JSON stream.
func goList(dir string, args ...string) ([]listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-e",
		"-json=ImportPath,Export,GoFiles,Dir,Standard,Module,Error,DepOnly"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", args, err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", args, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// LoadProgram loads the packages matching patterns (relative to dir)
// and all their dependencies. Dependencies' export data comes from
// `go list -export` (which compiles them into the build cache, fully
// offline); matched packages and in-module dependencies are then
// parsed and type-checked from source so analyzers can see their
// bodies.
func LoadProgram(dir string, patterns ...string) (*Program, error) {
	listed, err := goList(dir, append([]string{"-export", "-deps"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	prog := &Program{
		Fset:   token.NewFileSet(),
		byPath: map[string]*Package{},
	}
	exports := map[string]string{}
	var source []listedPackage
	for _, lp := range listed {
		if lp.Error != nil {
			return nil, fmt.Errorf("package %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if lp.Standard {
			continue
		}
		if prog.ModulePath == "" && lp.Module != nil && !lp.DepOnly {
			prog.ModulePath = lp.Module.Path
		}
		source = append(source, lp)
	}
	if prog.ModulePath == "" && len(source) > 0 && source[len(source)-1].Module != nil {
		prog.ModulePath = source[len(source)-1].Module.Path
	}

	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %q (does it compile?)", path)
		}
		return os.Open(f)
	}
	// In-module imports resolve to the already source-type-checked
	// package, so type and object identity hold across the whole
	// program (interface-implementation and field matching rely on
	// this); everything else comes from gc export data.
	imp := &progImporter{
		prog:     prog,
		fallback: importer.ForCompiler(prog.Fset, "gc", lookup),
	}

	// go list -deps emits dependencies before dependents, so a single
	// pass type-checks every package after its imports.
	for _, lp := range source {
		pkg := &Package{Path: lp.ImportPath, Dir: lp.Dir}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(prog.Fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			pkg.Files = append(pkg.Files, f)
		}
		pkg.Info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		var typeErr error
		conf := types.Config{
			Importer: imp,
			Error: func(err error) {
				if typeErr == nil {
					typeErr = err
				}
			},
		}
		tpkg, err := conf.Check(lp.ImportPath, prog.Fset, pkg.Files, pkg.Info)
		if typeErr != nil {
			return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, typeErr)
		}
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
		}
		pkg.Types = tpkg
		pkg.directives = collectDirectives(prog.Fset, pkg.Files)
		prog.Packages = append(prog.Packages, pkg)
		prog.byPath[pkg.Path] = pkg
		if !lp.DepOnly {
			prog.Targets = append(prog.Targets, pkg)
		}
	}
	if len(prog.Targets) == 0 {
		return nil, fmt.Errorf("no packages matched %v under %s", patterns, dir)
	}
	return prog, nil
}

// progImporter serves in-module imports from the source-type-checked
// packages (loaded deps-first, so they are always ready) and defers to
// export data otherwise.
type progImporter struct {
	prog     *Program
	fallback types.Importer
}

func (pi *progImporter) Import(path string) (*types.Package, error) {
	if p := pi.prog.byPath[path]; p != nil {
		return p.Types, nil
	}
	return pi.fallback.Import(path)
}

// inModule reports whether an import path belongs to the analyzed
// module.
func (p *Program) inModule(path string) bool {
	if p.ModulePath == "" {
		return false
	}
	return path == p.ModulePath ||
		(len(path) > len(p.ModulePath) && path[:len(p.ModulePath)] == p.ModulePath && path[len(p.ModulePath)] == '/')
}
