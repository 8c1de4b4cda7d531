package main

import (
	"context"
	"encoding/csv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"partfeas/internal/experiments"
)

// TestCommittedTablesReproduce is the gate on the paper tables in
// results/: it reruns every experiment at the committed seed and
// byte-compares each CSV with the committed one, so a kernel change that
// moves a table fails here until the same change regenerates results/
// (go run ./cmd/experiments -seed 20160523 -csv results). The wall-clock
// columns of E8 and E18 are left out; every other cell, including their
// sizes and E18's σ agreement, must match.
func TestCommittedTablesReproduce(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), experiments.Config{Seed: 20160523}, "all", dir, ""); err != nil {
		t.Fatal(err)
	}
	wallClock := []string{"total", "per-call", "ns/(n·m)", "seq", "par", "speedup"}
	for _, id := range experiments.IDs() {
		name := strings.ToLower(id) + ".csv"
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "results", name))
		if err != nil {
			t.Fatal(err)
		}
		if id == "E8" || id == "E18" {
			got, want = dropColumns(t, got, wallClock), dropColumns(t, want, wallClock)
		}
		if string(got) != string(want) {
			t.Errorf("%s differs from results/%s:\n got %s\nwant %s", id, name, got, want)
		}
	}
}

// dropColumns re-encodes a CSV table without the columns whose header
// is in names.
func dropColumns(t *testing.T, table []byte, names []string) []byte {
	t.Helper()
	rows, err := csv.NewReader(strings.NewReader(string(table))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	for _, row := range rows {
		var kept []string
		for j, cell := range row {
			if !slices.Contains(names, rows[0][j]) {
				kept = append(kept, cell)
			}
		}
		if err := w.Write(kept); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	return []byte(sb.String())
}

func TestRunSelectedWithCSV(t *testing.T) {
	dir := t.TempDir()
	cfg := experiments.Config{Seed: 1, Quick: true}
	if err := run(context.Background(), cfg, "E12", dir, ""); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "e12.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "c_s") {
		t.Errorf("csv content: %q", string(b)[:60])
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	cfg := experiments.Config{Seed: 1, Quick: true}
	if err := run(context.Background(), cfg, "E99", "", ""); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunBadCSVDir(t *testing.T) {
	cfg := experiments.Config{Seed: 1, Quick: true}
	if err := run(context.Background(), cfg, "E12", "/dev/null/not-a-dir", ""); err == nil {
		t.Error("unusable csv dir accepted")
	}
}
