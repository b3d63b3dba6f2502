package analysis

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// Main implements the mdvet command line: it runs the
// candidate analyzers over the argument patterns (default ./...) and
// prints findings in the machine-parseable
//
//	file:line:col: [analyzer] message
//
// format CI consumes. Flags: -list prints the candidate analyzers,
// -only restricts the run to a comma-separated subset. Exit status: 0
// clean, 1 findings, 2 on a load/usage/internal error.
func Main(tool string, candidates []*Analyzer, argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	only := fs.String("only", "", "run only the named analyzers (comma-separated)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: %s [-list] [-only analyzer,...] [packages]\n\nAnalyzers:\n", tool)
		for _, a := range candidates {
			fmt.Fprintf(stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *list {
		for _, a := range candidates {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers := candidates
	if *only != "" {
		var err error
		analyzers, err = ByName(*only, candidates)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", tool, err)
			return 2
		}
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", tool, err)
		return 2
	}
	diags, err := Run(cwd, patterns, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", tool, err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "%s: %d finding(s)\n", tool, len(diags))
		return 1
	}
	return 0
}
