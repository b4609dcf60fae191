package main

import (
	"os"
	"strings"
	"testing"
)

func TestExperimentsList(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"E1", "E5", "E12", "F3"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list missing %s:\n%s", want, out.String())
		}
	}
}

func TestExperimentsSingleID(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-id", "F2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "### F2") {
		t.Errorf("F2 output wrong:\n%s", out.String())
	}
}

func TestExperimentsUnknownID(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-id", "E99"}, &out); err == nil {
		t.Error("unknown id accepted")
	}
}

// TestExperimentsMatchGolden regenerates the fast tables and diffs each
// against its section of the committed EXPERIMENTS.md. E2, E3, E5 and E6
// take most of a minute together, so CI diffs the whole file instead
// (go run ./cmd/experiments | diff - EXPERIMENTS.md).
func TestExperimentsMatchGolden(t *testing.T) {
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	golden := string(raw)
	for _, id := range []string{"E1", "E4", "E7", "E8", "E9", "E10", "E11", "E12", "F1", "F2", "F3"} {
		want, ok := goldenSection(golden, id)
		if !ok {
			t.Errorf("EXPERIMENTS.md has no %s section", id)
			continue
		}
		var out strings.Builder
		if err := run([]string{"-id", id}, &out); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got := out.String(); got != want {
			t.Errorf("%s differs from EXPERIMENTS.md:\n--- got\n%s--- want\n%s", id, got, want)
		}
	}
}

// goldenSection cuts experiment id's table out of the concatenated
// markdown: from its "### id — " heading up to the next heading.
func goldenSection(golden, id string) (string, bool) {
	start := strings.Index(golden, "### "+id+" — ")
	if start < 0 {
		return "", false
	}
	end := strings.Index(golden[start:], "\n### ")
	if end < 0 {
		return golden[start:], true
	}
	return golden[start : start+end+1], true
}
