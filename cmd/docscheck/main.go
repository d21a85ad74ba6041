// Command docscheck is the repository's documentation gate (`make
// docs-check`). It enforces five invariants CI can hold without network
// access:
//
//   - every relative link in the maintained markdown files resolves to
//     a file or directory in the tree (external http(s) links and pure
//     in-page #fragments are not followed);
//   - every repository path they cite in backticks (internal/…, cmd/…,
//     examples/…, results/…, benchmark/… and the root-level BENCH*.json
//     snapshots) exists, so a deleted file or package cannot stay cited;
//   - README.md's architecture inventory names every package under
//     internal/, cmd/ and examples/, and every directory its tree lists
//     under those three headers exists — a new package cannot land
//     undocumented, nor a deleted one stay listed;
//   - every name the root package vod (vod.go) exports has a caller: a
//     vod.<Name> in a Go file under cmd/, examples/ or benchmark/, in
//     example_test.go or in README.md, or a kept function's signature
//     naming it — and every vod.<Name> the maintained docs cite is
//     exported, so the façade neither grows unused promises nor stays
//     cited for names it dropped;
//   - no non-test file under internal/ imports the façade: internal
//     packages build on each other, and the live server must not pull
//     the simulator and experiment harness in through it.
//
// The retrieved source artifacts (PAPER.md, PAPERS.md, SNIPPETS.md,
// ISSUE.md) are excluded: they are inputs to the project, not
// documentation of it, and carry extraction debris no one maintains.
// The path and façade-citation rules also skip ROADMAP.md and
// CHANGES.md, whose plans and history name files and exports that do
// not exist yet or no longer do.
package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// skippedDocs are markdown files the link gate ignores.
var skippedDocs = map[string]bool{
	"PAPER.md":    true,
	"PAPERS.md":   true,
	"SNIPPETS.md": true,
	"ISSUE.md":    true,
}

// historyDocs are markdown files the path gate also ignores.
var historyDocs = map[string]bool{"ROADMAP.md": true, "CHANGES.md": true}

// pathRE matches a code span holding one repository path, with an
// optional leading "./" and an optional trailing Go symbol suffix, which
// is not captured: `cmd/vodsim/main.go`, `internal/serve.Config.Seed`,
// `BENCH_ALLOCS.json`. A glob or a placeholder (`cmd/*`, `internal/…`,
// `BENCH_*.json`) is not a path and does not match.
var pathRE = regexp.MustCompile("`(?:\\./)?((?:internal|cmd|examples|results|benchmark)/[^`\\s*…]*?|BENCH[^`\\s*…/]*\\.json)(?:\\.[A-Z]\\w*)*`")

// treeEntryRE matches a directory entry of README.md's architecture
// tree: a name with a trailing slash, indented two spaces under its
// top-level header.
var treeEntryRE = regexp.MustCompile(`^  ([\w.-]+)/(?:\s|$)`)

// facadeRE matches a citation of a façade export in prose: vod.Simulate,
// vod.SimConfig. The file name vod.go is lower case and does not match.
var facadeRE = regexp.MustCompile(`\bvod\.([A-Z]\w*)`)

// facadeModule is the import path of the root package vod.
const facadeModule = "repro"

// linkRE matches inline markdown links and images: [text](target) and
// ![alt](target). Good enough for the prose style these docs use; code
// spans that happen to contain the pattern would have to look exactly
// like a link to false-positive, and none do.
var linkRE = regexp.MustCompile(`!?\[[^\]]*\]\(([^()\s]+)\)`)

func main() {
	os.Exit(run(".", os.Stdout))
}

// run checks the tree rooted at root and reports problems to w,
// returning 0 when the docs are clean and 1 otherwise.
func run(root string, w io.Writer) int {
	exports, problems := checkFacade(root)
	problems = append(problems, checkDocs(root, exports)...)
	problems = append(problems, checkInventory(root)...)
	problems = append(problems, checkInternalImports(root)...)
	for _, p := range problems {
		fmt.Fprintln(w, p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(w, "docscheck: %d problem(s)\n", len(problems))
		return 1
	}
	fmt.Fprintln(w, "docscheck: docs clean")
	return 0
}

// checkDocs resolves every relative link and every backticked
// repository path in the maintained markdown files against the tree,
// and every vod.<Name> they cite against the façade's exports.
func checkDocs(root string, exports map[string]bool) []string {
	var problems []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".md") || skippedDocs[name] {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			rel = path
		}
		for _, m := range linkRE.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external; CI stays offline
			}
			if strings.HasPrefix(target, "#") {
				continue // in-page fragment
			}
			target, _, _ = strings.Cut(target, "#")
			resolved := filepath.Join(filepath.Dir(path), target)
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems, fmt.Sprintf("%s: broken link %q", rel, m[1]))
			}
		}
		if historyDocs[name] {
			return nil
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range pathRE.FindAllStringSubmatch(line, -1) {
				if _, err := os.Stat(filepath.Join(root, m[1])); err != nil {
					problems = append(problems, fmt.Sprintf("%s:%d: missing path %s", rel, i+1, m[0]))
				}
			}
			for _, m := range facadeRE.FindAllStringSubmatch(line, -1) {
				if !exports[m[1]] {
					problems = append(problems, fmt.Sprintf("%s:%d: %s is not exported by vod.go", rel, i+1, m[0]))
				}
			}
		}
		return nil
	})
	if err != nil {
		problems = append(problems, fmt.Sprintf("docscheck: walking %s: %v", root, err))
	}
	return problems
}

// checkInventory verifies README.md mentions every package directory
// under internal/, cmd/ and examples/, in either spelled-out
// ("internal/engine") or architecture-tree ("engine/") form, and that
// every directory the architecture tree lists under one of those three
// headers exists.
func checkInventory(root string) []string {
	data, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		return []string{fmt.Sprintf("docscheck: %v", err)}
	}
	readme := string(data)
	var problems []string
	for _, tree := range []string{"internal", "cmd", "examples"} {
		entries, err := os.ReadDir(filepath.Join(root, tree))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return append(problems, fmt.Sprintf("docscheck: %v", err))
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			pkg := tree + "/" + e.Name()
			if !strings.Contains(readme, pkg) && !strings.Contains(readme, e.Name()+"/") {
				problems = append(problems, fmt.Sprintf("README.md: package %s missing from the architecture inventory", pkg))
			}
		}
	}
	tree := ""
	for i, line := range strings.Split(readme, "\n") {
		if !strings.HasPrefix(line, " ") {
			tree = ""
			if f := strings.Fields(line); len(f) > 0 && (f[0] == "internal/" || f[0] == "cmd/" || f[0] == "examples/") {
				tree = f[0]
			}
			continue
		}
		if m := treeEntryRE.FindStringSubmatch(line); m != nil && tree != "" {
			if info, err := os.Stat(filepath.Join(root, tree, m[1])); err != nil || !info.IsDir() {
				problems = append(problems, fmt.Sprintf("README.md:%d: architecture tree lists %s%s/, which does not exist", i+1, tree, m[1]))
			}
		}
	}
	return problems
}

// checkFacade parses vod.go and returns its exported names, reporting
// each one without a caller. A name has a caller when vod.<Name> appears
// in a Go file under cmd/, examples/ or benchmark/, in example_test.go
// or in README.md, or when the signature of an exported function with a
// caller names it (the types a kept function takes or returns stay
// nameable). vod.go's own tests do not count. A tree without vod.go
// exports nothing.
func checkFacade(root string) (map[string]bool, []string) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join(root, "vod.go"), nil, parser.SkipObjectResolution)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, []string{fmt.Sprintf("docscheck: %v", err)}
	}
	var exported []*ast.Ident
	signatures := map[string]*ast.FuncType{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				exported = append(exported, d.Name)
				signatures[d.Name.Name] = d.Type
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					exported = append(exported, spec.Name)
				case *ast.ValueSpec:
					exported = append(exported, spec.Names...)
				}
			}
		}
	}
	exported = slices.DeleteFunc(exported, func(id *ast.Ident) bool { return !id.IsExported() })
	exports := map[string]bool{}
	for _, id := range exported {
		exports[id.Name] = true
	}

	used, problems := facadeCallers(root)
	for name, sig := range signatures {
		if used[name] {
			ast.Inspect(sig, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && exports[id.Name] {
					used[id.Name] = true
				}
				return true
			})
		}
	}
	for _, id := range exported {
		if !used[id.Name] {
			problems = append(problems, fmt.Sprintf("vod.go:%d: exported vod.%s has no caller in cmd/, examples/, benchmark/, example_test.go or README.md",
				fset.Position(id.Pos()).Line, id.Name))
		}
	}
	return exports, problems
}

// facadeCallers collects the façade names the callers cite: the
// vod.<Name> selectors of every Go file importing the façade under cmd/,
// examples/ and benchmark/ and of example_test.go, and the vod.<Name>
// citations of README.md.
func facadeCallers(root string) (map[string]bool, []string) {
	var files, problems []string
	if _, err := os.Stat(filepath.Join(root, "example_test.go")); err == nil {
		files = append(files, filepath.Join(root, "example_test.go"))
	}
	for _, dir := range []string{"cmd", "examples", "benchmark"} {
		found, err := goFiles(root, dir)
		if err != nil {
			problems = append(problems, fmt.Sprintf("docscheck: %v", err))
		}
		files = append(files, found...)
	}
	used := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			problems = append(problems, fmt.Sprintf("docscheck: %v", err))
			continue
		}
		local := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == strconv.Quote(facadeModule) {
				local = "vod"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	if data, err := os.ReadFile(filepath.Join(root, "README.md")); err == nil {
		for _, m := range facadeRE.FindAllStringSubmatch(string(data), -1) {
			used[m[1]] = true
		}
	}
	return used, problems
}

// checkInternalImports reports every non-test Go file under internal/
// that imports the façade. Tests may: they sit outside the import graph
// a binary links.
func checkInternalImports(root string) []string {
	files, err := goFiles(root, "internal")
	if err != nil {
		return []string{fmt.Sprintf("docscheck: %v", err)}
	}
	var problems []string
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			problems = append(problems, fmt.Sprintf("docscheck: %v", err))
			continue
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == strconv.Quote(facadeModule) {
				rel, _ := filepath.Rel(root, path)
				problems = append(problems, fmt.Sprintf("%s:%d: imports the vod façade %s; internal packages import each other",
					filepath.ToSlash(rel), fset.Position(imp.Pos()).Line, imp.Path.Value))
			}
		}
	}
	return problems
}

// goFiles lists the Go files under root/dir, testdata excluded. A
// missing dir holds none.
func goFiles(root, dir string) ([]string, error) {
	var files []string
	err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == "testdata":
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(path, ".go"):
			files = append(files, path)
		}
		return nil
	})
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	return files, err
}
