// Command docscheck is the repository's documentation gate (`make
// docs-check`). It enforces three invariants CI can hold without network
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
//     undocumented, nor a deleted one stay listed.
//
// The retrieved source artifacts (PAPER.md, PAPERS.md, SNIPPETS.md,
// ISSUE.md) are excluded: they are inputs to the project, not
// documentation of it, and carry extraction debris no one maintains.
// The path rule also skips ROADMAP.md and CHANGES.md, whose plans and
// history name files that do not exist yet or no longer do.
package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
	problems := checkDocs(root)
	problems = append(problems, checkInventory(root)...)
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
// repository path in the maintained markdown files against the tree.
func checkDocs(root string) []string {
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
