package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// write drops a file under dir, creating parents.
func write(t *testing.T, dir, name, content string) {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// The real repository must pass its own gate: this is the same
// invocation `make docs-check` runs in CI.
func TestRepositoryDocsClean(t *testing.T) {
	var out bytes.Buffer
	if code := run("../..", &out); code != 0 {
		t.Errorf("docs gate failed on the repository:\n%s", out.String())
	}
}

func TestBrokenLinkFails(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "README.md", "see [the design](DESIGN.md) and internal/\n")
	write(t, dir, "DESIGN.md", "back to [nowhere](missing/file.md)\n")
	var out bytes.Buffer
	if code := run(dir, &out); code != 1 {
		t.Fatalf("exit %d with a broken link, want 1", code)
	}
	if !strings.Contains(out.String(), `broken link "missing/file.md"`) {
		t.Errorf("problem does not name the broken target:\n%s", out.String())
	}
	// The working link must not be reported.
	if strings.Contains(out.String(), "DESIGN.md: broken link \"DESIGN.md\"") {
		t.Errorf("resolvable link reported broken:\n%s", out.String())
	}
}

func TestMissingPackageFails(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "README.md", "only internal/engine is documented\n")
	write(t, dir, "internal/engine/engine.go", "package engine\n")
	write(t, dir, "internal/orphan/orphan.go", "package orphan\n")
	var out bytes.Buffer
	if code := run(dir, &out); code != 1 {
		t.Fatalf("exit %d with an undocumented package, want 1", code)
	}
	if !strings.Contains(out.String(), "internal/orphan") {
		t.Errorf("problem does not name the orphan package:\n%s", out.String())
	}
	if strings.Contains(out.String(), "internal/engine missing") {
		t.Errorf("documented package reported missing:\n%s", out.String())
	}
}

// External links and in-page fragments are out of scope: CI runs
// offline and the gate must not fail on them.
func TestExternalAndFragmentLinksSkipped(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "README.md",
		"[paper](https://example.org/lee01.pdf) [anchor](#section) [mail](mailto:x@y.z)\n")
	var out bytes.Buffer
	if code := run(dir, &out); code != 0 {
		t.Errorf("external/fragment links failed the gate:\n%s", out.String())
	}
}

// Links with a fragment still have their file half resolved.
func TestFragmentOnFileLink(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "README.md", "[sect](DESIGN.md#policy) [bad](GONE.md#policy)\n")
	write(t, dir, "DESIGN.md", "## policy\n")
	var out bytes.Buffer
	if code := run(dir, &out); code != 1 {
		t.Fatalf("exit %d, want 1 (GONE.md does not exist)", code)
	}
	if !strings.Contains(out.String(), `"GONE.md#policy"`) {
		t.Errorf("fragment link's missing file not reported:\n%s", out.String())
	}
	if strings.Contains(out.String(), "DESIGN.md#policy") {
		t.Errorf("resolvable fragment link reported broken:\n%s", out.String())
	}
}

// The retrieved source artifacts carry extraction debris and are not
// checked.
func TestRetrievedArtifactsSkipped(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "README.md", "clean\n")
	write(t, dir, "PAPERS.md", "![](_page_0_Picture_1.jpeg)\n")
	var out bytes.Buffer
	if code := run(dir, &out); code != 0 {
		t.Errorf("retrieved artifact failed the gate:\n%s", out.String())
	}
}

// A backticked repository path must exist; a deleted file or package
// stays cited otherwise.
func TestMissingBacktickedPathFails(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "README.md", "internal/engine/ lives in `internal/engine` (`./internal/engine/engine.go`), not `cmd/*` or `internal/…`\n")
	write(t, dir, "internal/engine/engine.go", "package engine\n")
	write(t, dir, "DESIGN.md", "intro\nsee `examples/streaming` and `results/full.txt`\n")
	var out bytes.Buffer
	if code := run(dir, &out); code != 1 {
		t.Fatalf("exit %d with missing backticked paths, want 1", code)
	}
	for _, want := range []string{"DESIGN.md:2: missing path `examples/streaming`", "DESIGN.md:2: missing path `results/full.txt`"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("problems lack %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "README.md") {
		t.Errorf("existing paths reported missing:\n%s", out.String())
	}
}

// A trailing Go symbol suffix is stripped before the path is checked,
// so it neither hides a missing package nor flags a present one.
func TestSymbolSuffixStripped(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "README.md", "internal/serve/ sets `internal/serve.Config.Seed`; `internal/gone.Config.Seed` is stale\n")
	write(t, dir, "internal/serve/serve.go", "package serve\n")
	var out bytes.Buffer
	if code := run(dir, &out); code != 1 {
		t.Fatalf("exit %d with a symbol in a missing package, want 1", code)
	}
	if !strings.Contains(out.String(), "missing path `internal/gone.Config.Seed`") {
		t.Errorf("symbol in a missing package not reported:\n%s", out.String())
	}
	if strings.Contains(out.String(), "internal/serve.Config.Seed") {
		t.Errorf("symbol in an existing package reported missing:\n%s", out.String())
	}
}

// ROADMAP.md and CHANGES.md record plans and history, which cite paths
// that do not exist yet or no longer do; their links are still checked.
func TestHistoryDocsSkipPathRule(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "README.md", "clean\n")
	write(t, dir, "ROADMAP.md", "add `internal/future`\n")
	write(t, dir, "CHANGES.md", "deleted `examples/streaming`, see [old](GONE.md)\n")
	var out bytes.Buffer
	if code := run(dir, &out); code != 1 {
		t.Fatalf("exit %d with a broken link in CHANGES.md, want 1", code)
	}
	if !strings.Contains(out.String(), `CHANGES.md: broken link "GONE.md"`) {
		t.Errorf("broken link in a history doc not reported:\n%s", out.String())
	}
	if strings.Contains(out.String(), "missing path") {
		t.Errorf("history doc checked by the path rule:\n%s", out.String())
	}
}

// The inventory covers examples/ as well as internal/ and cmd/.
func TestMissingExampleFails(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "README.md", "examples/quickstart is documented\n")
	write(t, dir, "examples/quickstart/main.go", "package main\n")
	write(t, dir, "examples/orphan/main.go", "package main\n")
	var out bytes.Buffer
	if code := run(dir, &out); code != 1 {
		t.Fatalf("exit %d with an undocumented example, want 1", code)
	}
	if !strings.Contains(out.String(), "package examples/orphan missing") {
		t.Errorf("problem does not name the orphan example:\n%s", out.String())
	}
	if strings.Contains(out.String(), "examples/quickstart missing") {
		t.Errorf("documented example reported missing:\n%s", out.String())
	}
}
