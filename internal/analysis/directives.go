package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive names. A directive is a comment of the form
//
//	//md:<name> [argument / free-text justification]
//
// placed either on the line of the construct it governs, on the line
// immediately above it, or anywhere in a declaration's doc comment.
// When the same directive appears more than once on one line, the first
// occurrence wins (directives_test.go pins this).
const (
	// DirHotPath marks a function as part of the warm per-cycle path:
	// hotpathalloc requires it (and everything it calls inside the
	// module) to perform no heap allocation.
	DirHotPath = "hotpath"
	// DirAllocOK exempts one statement (same line) or a whole function
	// (doc comment) from hotpathalloc; the justification is mandatory by
	// convention (amortized growth, cold slow path, ...). A function
	// exempted this way is also not walked into.
	DirAllocOK = "allocok"
	// DirOrderIndependent exempts a map iteration from determinism: the
	// author asserts the loop's observable effect does not depend on
	// iteration order.
	DirOrderIndependent = "orderindependent"
	// DirStatsStruct marks the struct whose exported counter fields
	// statsguard tracks.
	DirStatsStruct = "statsstruct"
	// DirStatsSink marks a serialization function: statsguard requires
	// every tracked counter field to be read on some path reachable from
	// a sink.
	DirStatsSink = "statssink"

	// DirGuardedBy, on a struct field, names the sibling mutex field
	// that must be held to access it: guardedby flags accesses outside
	// the mutex (reads may hold RLock; writes need the exclusive Lock).
	DirGuardedBy = "guardedby"
	// DirLocked, on a function or method, asserts the caller already
	// holds the named mutex(es) of the receiver: the body is analyzed
	// with the lock held, and every call site must hold it.
	DirLocked = "locked"
	// DirNoLock waives one guardedby finding (same line or line above),
	// or — on a function's doc comment — the whole function (the escape
	// hatch for single-owner phases before a value is published). The
	// justification is mandatory.
	DirNoLock = "nolock"

	// DirSoA marks a structure-of-arrays struct: its slice fields are
	// the columns colparity tracks across lifecycle sites.
	DirSoA = "soa"
	// DirSoALifecycle, on a function, names an //md:soa struct whose
	// every column the function must touch (grow, reset-on-reuse,
	// snapshot, sanitizer mirror). Adding a column without updating a
	// lifecycle site becomes a compile-time-style finding instead of a
	// stale-state heisenbug.
	DirSoALifecycle = "soalifecycle"
	// DirColOK, on a lifecycle function's doc comment, exempts one named
	// column from the parity requirement at that site, with a mandatory
	// reason ("//md:colok <field> <why>").
	DirColOK = "colok"

	// DirCtxOK waives one ctxflow finding (same line or line above): a
	// blocking channel operation whose progress is guaranteed by
	// something other than a context (a buffered-by-contract channel, a
	// closing channel). The justification is mandatory.
	DirCtxOK = "ctxok"
	// DirErrOK waives one errdiscard finding (same line or line above):
	// the author asserts the discarded error is genuinely ignorable
	// (read-only close, cleanup on an already-failing path). The
	// justification is mandatory.
	DirErrOK = "errok"
)

const directivePrefix = "//md:"

// directiveIndex records, per file and line, which directives appear
// there and their raw argument text (the rest of the comment, trimmed).
// occupied marks lines carrying non-comment code: a trailing directive
// (one sharing its line with code) binds only to that line, never to
// the construct on the line below — otherwise `a int //md:guardedby mu`
// would silently annotate the next field too.
type directiveIndex struct {
	at       map[string]map[int]map[string]string
	occupied map[string]map[int]bool
}

func collectDirectives(fset *token.FileSet, files []*ast.File) directiveIndex {
	idx := directiveIndex{
		at:       map[string]map[int]map[string]string{},
		occupied: map[string]map[int]bool{},
	}
	for _, f := range files {
		// Mark every line where an AST node (i.e. code, not a comment)
		// starts or ends.
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case nil:
				return true
			case *ast.Comment, *ast.CommentGroup:
				return false // doc comments are not code lines
			}
			from := fset.Position(n.Pos())
			to := fset.Position(n.End())
			occ := idx.occupied[from.Filename]
			if occ == nil {
				occ = map[int]bool{}
				idx.occupied[from.Filename] = occ
			}
			occ[from.Line] = true
			occ[to.Line] = true
			return true
		})
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, arg, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := idx.at[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]string{}
					idx.at[pos.Filename] = lines
				}
				set := lines[pos.Line]
				if set == nil {
					set = map[string]string{}
					lines[pos.Line] = set
				}
				if _, dup := set[name]; !dup { // first occurrence wins
					set[name] = arg
				}
			}
		}
	}
	return idx
}

// parseDirective splits one comment into a directive name and its
// argument text. Only //md:-prefixed comments parse; a bare "//md:"
// (empty name) does not.
func parseDirective(text string) (name, arg string, ok bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	name = rest
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		name, arg = rest[:i], strings.TrimSpace(rest[i+1:])
	}
	if name == "" {
		return "", "", false
	}
	return name, arg, true
}

// argAt returns the argument text of the named directive at file:line.
func (idx directiveIndex) argAt(file string, line int, name string) (string, bool) {
	arg, ok := idx.at[file][line][name]
	return arg, ok
}

// argFor resolves the directive governing file:line: on the line
// itself, or on the line above when that line holds nothing but
// comments (a trailing directive binds only to its own line).
func (idx directiveIndex) argFor(file string, line int, name string) (string, bool) {
	if arg, ok := idx.argAt(file, line, name); ok {
		return arg, true
	}
	if idx.occupied[file][line-1] {
		return "", false
	}
	return idx.argAt(file, line-1, name)
}

func (idx directiveIndex) hasFor(file string, line int, name string) bool {
	_, ok := idx.argFor(file, line, name)
	return ok
}

// waiverAt looks the named waiver directive up at pos or the
// comment-only line above it. found reports the waiver's presence;
// reason is its justification text (waivers with an empty reason are
// still waivers — the analyzers report the missing justification as its
// own finding).
func (idx directiveIndex) waiverAt(fset *token.FileSet, pos token.Pos, name string) (found bool, reason string, at token.Position) {
	p := fset.Position(pos)
	if arg, ok := idx.argAt(p.Filename, p.Line, name); ok {
		return true, arg, token.Position{Filename: p.Filename, Line: p.Line, Column: 1}
	}
	if !idx.occupied[p.Filename][p.Line-1] {
		if arg, ok := idx.argAt(p.Filename, p.Line-1, name); ok {
			return true, arg, token.Position{Filename: p.Filename, Line: p.Line - 1, Column: 1}
		}
	}
	return false, "", at
}

// checkWaiver applies a site waiver: it reports whether the finding at
// pos is waived, and emits a "waiver without justification" diagnostic
// at the waived site when the waiver carries no reason (the audit-trail
// contract: every waiver must say why).
func (pass *Pass) checkWaiver(pkg *Package, pos token.Pos, name string) bool {
	found, reason, _ := pkg.directives.waiverAt(pass.Program.Fset, pos, name)
	if !found {
		return false
	}
	if reason == "" {
		pass.Reportf(pos, "//md:%s waiver without justification: state why the finding is acceptable", name)
	}
	return true
}

// HasDirective reports whether node is governed by the named directive:
// the directive appears on the node's first line, or alone on the line
// above it.
func (pkg *Package) HasDirective(fset *token.FileSet, node ast.Node, name string) bool {
	pos := fset.Position(node.Pos())
	return pkg.directives.hasFor(pos.Filename, pos.Line, name)
}

// DirectiveArg returns the argument of the named directive governing
// node (its first line, or alone on the line above).
func (pkg *Package) DirectiveArg(fset *token.FileSet, node ast.Node, name string) (string, bool) {
	pos := fset.Position(node.Pos())
	return pkg.directives.argFor(pos.Filename, pos.Line, name)
}

// FuncHasDirective reports whether the function declaration carries the
// directive, in its doc comment or adjacent to its first line.
func (pkg *Package) FuncHasDirective(fset *token.FileSet, decl *ast.FuncDecl, name string) bool {
	_, ok := pkg.FuncDirectiveArg(fset, decl, name)
	return ok
}

// FuncDirectiveArg returns the argument of the directive carried by the
// function declaration, in its doc comment or adjacent to its first
// line.
func (pkg *Package) FuncDirectiveArg(fset *token.FileSet, decl *ast.FuncDecl, name string) (string, bool) {
	if arg, ok := pkg.DirectiveArg(fset, decl, name); ok {
		return arg, ok
	}
	if decl.Doc != nil {
		for _, c := range decl.Doc.List {
			if n, arg, ok := parseDirective(c.Text); ok && n == name {
				return arg, true
			}
		}
	}
	return "", false
}

// FuncDirectiveArgs returns the arguments of every occurrence of the
// directive in the function's doc comment and adjacent lines (for
// directives that may repeat, like //md:colok).
func (pkg *Package) FuncDirectiveArgs(fset *token.FileSet, decl *ast.FuncDecl, name string) []string {
	var args []string
	if decl.Doc != nil {
		for _, c := range decl.Doc.List {
			if n, arg, ok := parseDirective(c.Text); ok && n == name {
				args = append(args, arg)
			}
		}
	}
	// An adjacent-line directive not already inside the doc comment.
	if decl.Doc == nil {
		if arg, ok := pkg.DirectiveArg(fset, decl, name); ok {
			args = append(args, arg)
		}
	}
	return args
}

// TypeHasDirective reports whether the type declaration carries the
// directive: on the TypeSpec itself, the enclosing GenDecl's doc, or
// adjacent lines.
func typeHasDirective(fset *token.FileSet, pkg *Package, gd *ast.GenDecl, spec *ast.TypeSpec, name string) bool {
	if pkg.HasDirective(fset, spec, name) || pkg.HasDirective(fset, gd, name) {
		return true
	}
	for _, doc := range []*ast.CommentGroup{gd.Doc, spec.Doc, spec.Comment} {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			if n, _, ok := parseDirective(c.Text); ok && n == name {
				return true
			}
		}
	}
	return false
}
