package scec_test

import (
	"bytes"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAPI holds the facade to the committed api.txt: every exported
// identifier of this package with its signature — functions, methods of
// exported types, type declarations (an alias with its target), vars and
// consts. A change to the facade is a change to api.txt, made on purpose.
//
// The facade offers one way to do each job, and an export stays only if at
// least one of these holds:
//   - a binary under cmd/, a program under examples/, an Example function
//     or the end-to-end benchmark calls it;
//   - a kept export's signature names it;
//   - it is the only way an importer outside the module reaches a
//     capability (MetricsHandler, the telemetry registry's one surface).
//
// On a mismatch the test writes the current rendering to a temporary file
// and names it; copy that file over api.txt when the change is intended.
func TestAPI(t *testing.T) {
	got := renderAPI(t)
	want, err := os.ReadFile("api.txt")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	f, err := os.CreateTemp("", "api-*.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(got); err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	line := 0
	for line < len(gotLines) && line < len(wantLines) && gotLines[line] == wantLines[line] {
		line++
	}
	at := func(lines []string) string {
		if line < len(lines) {
			return lines[line]
		}
		return "<end of file>"
	}
	t.Fatalf("exported API differs from api.txt at line %d:\n  api.txt: %s\n  package: %s\nthe package's rendering is in %s",
		line+1, at(wantLines), at(gotLines), f.Name())
}

// renderAPI renders the package's exported identifiers, one declaration
// each, in go/doc's order: consts, vars, funcs, then each type with its
// consts, vars, constructors and methods. The files are parsed without
// comments, so only the declarations print.
func renderAPI(t *testing.T) []byte {
	t.Helper()
	fset := token.NewFileSet()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, file)
	}
	pkg, err := doc.NewFromFiles(fset, files, "github.com/scec/scec")
	if err != nil {
		t.Fatal(err)
	}

	var b bytes.Buffer
	cfg := printer.Config{Mode: printer.UseSpaces | printer.TabIndent, Tabwidth: 8}
	emit := func(prefix string, node ast.Node) {
		var decl strings.Builder
		if err := cfg.Fprint(&decl, fset, node); err != nil {
			t.Fatal(err)
		}
		// The blank lines a struct's field comments left behind carry no API.
		for _, line := range strings.Split(prefix+decl.String(), "\n") {
			if line != "" {
				b.WriteString(line + "\n")
			}
		}
	}
	values := func(kind string, vals []*doc.Value) {
		for _, v := range vals {
			for _, spec := range v.Decl.Specs {
				emit(kind+" ", spec)
			}
		}
	}
	funcs := func(fns []*doc.Func) {
		for _, fn := range fns {
			decl := *fn.Decl
			decl.Body = nil
			emit("", &decl)
		}
	}

	values("const", pkg.Consts)
	values("var", pkg.Vars)
	funcs(pkg.Funcs)
	for _, typ := range pkg.Types {
		for _, spec := range typ.Decl.Specs {
			emit("type ", spec)
		}
		values("const", typ.Consts)
		values("var", typ.Vars)
		funcs(typ.Funcs)
		funcs(typ.Methods)
	}
	return b.Bytes()
}
