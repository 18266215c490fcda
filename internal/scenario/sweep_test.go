package scenario

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// Aggregate names every trial that reported violations — its index, the
// seed CellSpec gives it and its count — and no other; WriteSweepCSV adds
// one comment line per failing cell below the table, and a clean sweep's
// CSV and JSON carry no trace of the feature.
func TestAggregateNamesFailingCells(t *testing.T) {
	g, err := NewGrid(SweepConfig{
		Scenarios: []string{"highway", "sparse"}, Protocols: []Protocol{AODV, DYMO},
		Trials: 3, Seed: 11, Shrunk: true, Checked: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	results := func() [][]TrialResult {
		cells := make([][]TrialResult, g.Cells())
		for j := range cells {
			cells[j] = make([]TrialResult, len(g.Protocols))
		}
		return cells
	}
	seed := func(j int) int64 {
		s, err := g.CellSpec(j)
		if err != nil {
			t.Fatal(err)
		}
		return s.Seed
	}

	cells := results()
	cells[2][1].Violations = 4 // highway trial 2, DYMO
	cells[3][0].Violations = 1 // sparse trial 0, AODV
	cells[5][0].Violations = 7 // sparse trial 2, AODV
	rows := g.Aggregate(cells)
	want := map[string][]FailingCell{
		"highway/dymo": {{Trial: 2, Seed: seed(2), Violations: 4}},
		"sparse/aodv":  {{Trial: 0, Seed: seed(3), Violations: 1}, {Trial: 2, Seed: seed(5), Violations: 7}},
	}
	for _, r := range rows {
		key := r.Scenario + "/" + string(r.Protocol)
		if !reflect.DeepEqual(r.FailingCells, want[key]) {
			t.Errorf("%s: failing cells %+v, want %+v", key, r.FailingCells, want[key])
		}
	}

	var csv bytes.Buffer
	if err := WriteSweepCSV(&csv, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(csv.String(), "\n"), "\n")
	if len(lines) != 2+len(rows)+3 {
		t.Fatalf("CSV has %d lines, want header, %d rows and 3 comments:\n%s", len(lines), len(rows), csv.String())
	}
	wantTail := []string{
		fmt.Sprintf("# highway/dymo: trial 2 seed %d (4 violations)", seed(2)),
		fmt.Sprintf("# sparse/aodv: trial 0 seed %d (1 violations)", seed(3)),
		fmt.Sprintf("# sparse/aodv: trial 2 seed %d (7 violations)", seed(5)),
	}
	if got := lines[len(lines)-3:]; !reflect.DeepEqual(got, wantTail) {
		t.Errorf("CSV comments:\n%q\nwant\n%q", got, wantTail)
	}

	clean := g.Aggregate(results())
	csv.Reset()
	if err := WriteSweepCSV(&csv, clean); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(csv.String(), "\n"); n != 2+len(clean) {
		t.Errorf("clean sweep CSV has %d lines, want %d:\n%s", n, 2+len(clean), csv.String())
	}
	var js bytes.Buffer
	if err := WriteSweepJSON(&js, clean); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(js.String(), "failingCells") {
		t.Errorf("clean sweep JSON names failing cells:\n%s", js.String())
	}
}
