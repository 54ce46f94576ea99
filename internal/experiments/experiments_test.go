package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// Every experiment must run clean in quick mode; the runners themselves
// assert the paper's claims (period values, agreement between pipelines),
// so a green run is a verified reproduction at small scale.
func TestAllExperimentsQuick(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tab, err := All[id](true)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s: empty table", id)
			}
			out := tab.String()
			if !strings.Contains(out, tab.ID) || !strings.Contains(out, "claim:") {
				t.Errorf("%s: misrendered table:\n%s", id, out)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Errorf("%s: ragged row %v", id, row)
				}
			}
		})
	}
}

func TestE3PeriodsDouble(t *testing.T) {
	tab, err := E3(true)
	if err != nil {
		t.Fatal(err)
	}
	var prev int
	for i, row := range tab.Rows {
		p, err := strconv.Atoi(row[2])
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && p != prev*4 { // bits advance by 2 in quick mode
			t.Errorf("row %d: period %d, want %d", i, p, prev*4)
		}
		prev = p
	}
}

func TestE2AllPeriodOne(t *testing.T) {
	tab, err := E2(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[3] != "1" {
			t.Errorf("inflationary row with period %s", row[3])
		}
	}
}

func TestE5PeriodConstant(t *testing.T) {
	tab, err := E5(true)
	if err != nil {
		t.Fatal(err)
	}
	first := tab.Rows[0][2]
	for _, row := range tab.Rows {
		if row[2] != first {
			t.Errorf("period changed across databases: %s vs %s", first, row[2])
		}
	}
}

func TestE8RatiosAboveOne(t *testing.T) {
	tab, err := E8(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		ratio := strings.TrimSuffix(row[4], "x")
		v, err := strconv.ParseFloat(ratio, 64)
		if err != nil {
			t.Fatal(err)
		}
		if v <= 1 {
			t.Errorf("naive not slower than engine: ratio %v", v)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID: "EX", Title: "demo", Claim: "c", Expect: "e",
		Header: []string{"a", "long_column"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"n1"},
	}
	out := tab.String()
	for _, want := range []string{"== EX: demo ==", "long_column", "note: n1", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestE10ClosedForm pins the Section 7 counting argument: over an
// alphabet of k symbols the depth-m model has k^m facts at depth m and
// Σ_{i≤m} k^i in all, and the one-symbol row — the one the runner also
// checks on the TDD engine — is the linear 1 and m+1.
func TestE10ClosedForm(t *testing.T) {
	tab, err := E10(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("%d rows, want one per alphabet f, fg, fgh", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		k := len(row[0])
		depth, err1 := strconv.Atoi(row[1])
		total, err2 := strconv.Atoi(row[2])
		atDepth, err3 := strconv.Atoi(row[3])
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("unparsable row %v", row)
		}
		pow, sum := 1, 1
		for i := 0; i < depth; i++ {
			pow *= k
			sum += pow
		}
		if atDepth != pow || total != sum {
			t.Errorf("alphabet %s depth %d: %d facts, %d at depth; want %d, %d", row[0], depth, total, atDepth, sum, pow)
		}
		if row[0] == "f" && (total != 9 || atDepth != 1) {
			t.Errorf("one-symbol row %v, want 9 facts and 1 at depth", row)
		}
	}
}
