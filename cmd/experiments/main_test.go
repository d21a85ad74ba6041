package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

func runCapture(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestList(t *testing.T) {
	code, out, _ := runCapture(t, "-run", "list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, id := range []string{"table3", "fig7", "fig14", "ablation-pages"} {
		if !strings.Contains(out, id+"\n") {
			t.Errorf("list output missing %q", id)
		}
	}
}

func TestBadFlags(t *testing.T) {
	if code, _, _ := runCapture(t, "-nonsense"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	if code, _, errw := runCapture(t, "-format", "xml", "-run", "table3"); code != 2 || !strings.Contains(errw, "xml") {
		t.Errorf("bad format: exit %d stderr %q", code, errw)
	}
}

func TestUnknownExperiment(t *testing.T) {
	code, _, errw := runCapture(t, "-run", "no-such-figure")
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.Contains(errw, "no-such-figure") {
		t.Errorf("stderr does not name the failing id: %q", errw)
	}
}

// Table 3 is analytic (no simulation), so its rendering is a stable,
// cheap golden for both output formats.
func TestGoldenTable3(t *testing.T) {
	code, out, _ := runCapture(t, "-run", "table3")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	checkGolden(t, "table3.txt", out)

	code, out, _ = runCapture(t, "-run", "table3", "-format", "csv")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	checkGolden(t, "table3.csv", out)
}

// Determinism regression for the engine refactor: the Table 3 report is
// byte-identical at one worker and at eight, and matches the golden
// committed before internal/sim was split into engine + driver.
func TestTable3DeterministicAcrossWorkers(t *testing.T) {
	code, one, _ := runCapture(t, "-run", "table3", "-format", "csv", "-workers", "1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	code, eight, _ := runCapture(t, "-run", "table3", "-format", "csv", "-workers", "8")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if one != eight {
		t.Error("-workers 1 and -workers 8 reports differ")
	}
	checkGolden(t, "table3.csv", one)
}

// A quick simulated figure with 2 seeds exercises the full pipeline:
// deterministic parallel seeding plus the replication-statistics columns.
// The golden is rendered with the default worker count, so a match also
// re-checks that output does not depend on parallelism.
func TestGoldenFig7Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	code, out, _ := runCapture(t, "-run", "fig7", "-quick", "-seeds", "2", "-format", "csv")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "stddev") || !strings.Contains(out, "ci95") {
		t.Error("CSV missing replication-statistics columns")
	}
	checkGolden(t, "fig7_quick.csv", out)

	// Same run pinned to one worker must produce the identical bytes.
	code, seq, _ := runCapture(t, "-run", "fig7", "-quick", "-seeds", "2", "-format", "csv", "-workers", "1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if seq != out {
		t.Error("-workers 1 output differs from default worker count")
	}
}

// The sharing scenario's paired-arm report is a golden too: the shared
// path (viewer batching, prefix-cache replay, piggyback extends) must
// stay byte-deterministic across worker counts, exactly like the
// engine-only experiments.
func TestGoldenZipfSharingQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	code, out, _ := runCapture(t, "-run", "zipf-sharing", "-quick", "-format", "csv")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	checkGolden(t, "zipf_sharing_quick.csv", out)

	code, one, _ := runCapture(t, "-run", "zipf-sharing", "-quick", "-format", "csv", "-workers", "1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	code, eight, _ := runCapture(t, "-run", "zipf-sharing", "-quick", "-format", "csv", "-workers", "8")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if one != out || eight != out {
		t.Error("zipf-sharing report depends on the worker count")
	}
}

// The fleet scenario's paired-arm report is the PR's acceptance
// artifact: the routed, replicated fleet admits at least twice the
// single-copy fleet at zero underruns, the measured peaks land on the
// analytic max-flow bound curve, and the whole report is
// byte-deterministic across worker counts like every other experiment.
func TestGoldenFleetRoutingQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	code, out, _ := runCapture(t, "-run", "fleet-routing", "-quick", "-format", "csv")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	checkGolden(t, "fleet_routing_quick.csv", out)
	if strings.Contains(out, "VIOLATED") {
		t.Error("fleet-routing reports underruns")
	}

	code, one, _ := runCapture(t, "-run", "fleet-routing", "-quick", "-format", "csv", "-workers", "1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	code, eight, _ := runCapture(t, "-run", "fleet-routing", "-quick", "-format", "csv", "-workers", "8")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if one != out || eight != out {
		t.Error("fleet-routing report depends on the worker count")
	}
}

// The QoE experiment's paired-arm report is this PR's acceptance
// artifact: downgrading admission serves strictly more viewers than
// reject-only at no more underruns, at every load point, and the report
// is byte-deterministic across worker counts.
func TestGoldenQoEDowngradeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	code, out, _ := runCapture(t, "-run", "qoe-downgrade", "-quick", "-seeds", "2", "-format", "csv")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	checkGolden(t, "qoe_downgrade_quick.csv", out)
	for _, col := range []string{"startup delay", "starvation prob", "downgrades"} {
		if !strings.Contains(out, col) {
			t.Errorf("report missing %q column", col)
		}
	}

	// The acceptance-gate note only renders in the text format.
	code, txt, _ := runCapture(t, "-run", "qoe-downgrade", "-quick", "-seeds", "2")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(txt, "gate held") || strings.Contains(txt, "VIOLATED") {
		t.Error("qoe-downgrade acceptance gate failed")
	}

	code, one, _ := runCapture(t, "-run", "qoe-downgrade", "-quick", "-seeds", "2", "-format", "csv", "-workers", "1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	code, eight, _ := runCapture(t, "-run", "qoe-downgrade", "-quick", "-seeds", "2", "-format", "csv", "-workers", "8")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if one != out || eight != out {
		t.Error("qoe-downgrade report depends on the worker count")
	}
}

func TestGoldenQoEAdaptationQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	code, out, _ := runCapture(t, "-run", "qoe-adaptation", "-quick", "-seeds", "2", "-format", "csv")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	checkGolden(t, "qoe_adaptation_quick.csv", out)
	for _, col := range []string{"up-switches", "down-switches", "underruns", "tw rung (Mbps)"} {
		if !strings.Contains(out, col) {
			t.Errorf("report missing %q column", col)
		}
	}

	// The acceptance-gate note only renders in the text format.
	code, txt, _ := runCapture(t, "-run", "qoe-adaptation", "-quick", "-seeds", "2")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(txt, "gate held") || strings.Contains(txt, "VIOLATED") {
		t.Error("qoe-adaptation acceptance gate failed")
	}

	code, one, _ := runCapture(t, "-run", "qoe-adaptation", "-quick", "-seeds", "2", "-format", "csv", "-workers", "1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	code, eight, _ := runCapture(t, "-run", "qoe-adaptation", "-quick", "-seeds", "2", "-format", "csv", "-workers", "8")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if one != out || eight != out {
		t.Error("qoe-adaptation report depends on the worker count")
	}
}
