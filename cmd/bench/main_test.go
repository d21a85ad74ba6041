package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// A case over b·110/100 + 1 regresses; one exactly at the limit does not.
func TestCompareLimit(t *testing.T) {
	base := []result{{"day", 1305}, {"session", 1}, {"free", 0}}
	atLimit := []result{{"day", 1436}, {"session", 2}, {"free", 1}}
	if problems := compare(base, atLimit); len(problems) != 0 {
		t.Errorf("cases exactly at the limit failed: %v", problems)
	}
	over := []result{{"day", 1437}, {"session", 3}, {"free", 2}}
	problems := compare(base, over)
	if len(problems) != 3 {
		t.Fatalf("%d problems for three cases over the limit, want 3: %v", len(problems), problems)
	}
	if want := "day: 1437 allocs/op vs baseline 1305 (limit 1436)"; problems[0] != want {
		t.Errorf("problem %q, want %q", problems[0], want)
	}
}

// A case missing from the run or from the baseline fails the gate, so a
// dropped case cannot pass unnoticed.
func TestCompareMissingCaseFails(t *testing.T) {
	base := []result{{"kept", 10}, {"dropped", 10}}
	cur := []result{{"kept", 10}, {"added", 0}}
	got := compare(base, cur)
	want := []string{"added: no baseline", "dropped: in the baseline but not run"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("problems %q, want %q", got, want)
	}
}

func TestRunBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-no-such-flag"}, {"-out", "x.json"}, {"stray"}} {
		var out, errs strings.Builder
		if code := run(args, &out, &errs); code != 2 {
			t.Errorf("run %q exited %d, want 2", args, code)
		}
	}
}

// An unreadable baseline fails before any case runs.
func TestRunUnreadableBaseline(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{bad, filepath.Join(t.TempDir(), "missing.json")} {
		var out, errs strings.Builder
		if code := run([]string{"-check", path}, &out, &errs); code != 1 {
			t.Errorf("run -check %s exited %d, want 1", path, code)
		}
		if out.Len() != 0 {
			t.Errorf("a snapshot was printed despite the unreadable baseline:\n%s", out.String())
		}
	}
}

// The committed baseline names exactly the tracked cases, in run order.
func TestBaselineNamesEveryCase(t *testing.T) {
	buf, err := os.ReadFile("../../BENCH_ALLOCS.json")
	if err != nil {
		t.Fatal(err)
	}
	var base []result
	if err := json.Unmarshal(buf, &base); err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, c := range cases() {
		want = append(want, c.name)
	}
	for _, b := range base {
		got = append(got, b.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCH_ALLOCS.json names %q, want the tracked cases %q", got, want)
	}
}
