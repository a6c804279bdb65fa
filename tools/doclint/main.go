// Command doclint enforces the repository's godoc contract. Each positional
// argument is a package directory that must carry a package doc comment; the
// -symbols flag names directories (comma-separated) where, additionally,
// every exported top-level declaration — functions, methods on exported
// types, types, constants and variables — must have a doc comment.
//
// The -docs flag names markdown files (comma-separated) to cross-check
// against the code: every -engine/-policy value they mention must be a
// registered engine mode, and every backticked token inside a
// `<!-- doclint:bench-schema -->` … `<!-- doclint:end -->` region must be a
// real BENCH.json field (see docs.go).
//
// Usage (mirrors the CI step):
//
//	go run ./tools/doclint -symbols internal/tensor,internal/metrics,internal/obs \
//	    -docs README.md,DESIGN.md,EXPERIMENTS.md,POLICIES.md \
//	    internal/tensor internal/bench internal/testkit internal/obs internal/metrics
//
// Exit status: 0 when clean, 1 on missing docs or doc-to-code drift, 2 on
// usage or parse errors.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
)

func main() {
	symbolDirs := flag.String("symbols", "",
		"comma-separated dirs whose exported symbols must all be documented")
	docFiles := flag.String("docs", "",
		"comma-separated markdown files to cross-check against code (policies, bench schema)")
	flag.Parse()
	if flag.NArg() == 0 && *docFiles == "" {
		fmt.Fprintln(os.Stderr, "doclint: no package directories or -docs files given")
		os.Exit(2)
	}
	strict := make(map[string]bool)
	for _, d := range strings.Split(*symbolDirs, ",") {
		if d != "" {
			strict[strings.TrimRight(d, "/")] = true
		}
	}
	var problems []string
	for _, dir := range flag.Args() {
		dir = strings.TrimRight(dir, "/")
		ps, err := lintDir(dir, strict[dir])
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			os.Exit(2)
		}
		problems = append(problems, ps...)
	}
	if *docFiles != "" {
		var paths []string
		for _, p := range strings.Split(*docFiles, ",") {
			if p != "" {
				paths = append(paths, p)
			}
		}
		ps, err := lintDocs(paths)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			os.Exit(2)
		}
		problems = append(problems, ps...)
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Fprintf(os.Stderr, "doclint: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
}

// lintDir parses every non-test Go file in dir and reports missing docs.
func lintDir(dir string, symbols bool) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			problems = append(problems,
				fmt.Sprintf("%s: package %s has no package doc comment", dir, pkg.Name))
		}
		if !symbols {
			continue
		}
		for _, f := range pkg.Files {
			problems = append(problems, lintFile(fset, f)...)
		}
	}
	return problems, nil
}

// lintFile reports exported declarations in f lacking doc comments.
func lintFile(fset *token.FileSet, f *ast.File) []string {
	var problems []string
	missing := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		problems = append(problems,
			fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !exportedReceiver(d) {
				continue
			}
			if d.Doc == nil {
				missing(d.Pos(), "function", funcName(d))
			}
		case *ast.GenDecl:
			// A doc comment on the decl covers every spec in the group
			// (the standard grouped-const idiom).
			groupDoc := d.Doc != nil
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && !groupDoc && s.Doc == nil {
						missing(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					if groupDoc || s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							missing(s.Pos(), "value", n.Name)
						}
					}
				}
			}
		}
	}
	return problems
}

// exportedReceiver reports whether d is a plain function or a method whose
// receiver type is exported — methods on unexported types are not part of
// the package's godoc surface.
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}

// funcName renders "Name" or "(Recv).Name" for error messages.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	t := d.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return "(" + id.Name + ")." + d.Name.Name
	}
	return d.Name.Name
}
