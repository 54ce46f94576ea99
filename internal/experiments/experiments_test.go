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

func TestBTWorkFor(t *testing.T) {
	w, err := BTWorkFor(4)
	if err != nil {
		t.Fatal(err)
	}
	if w.Period.P != 50 {
		t.Errorf("work = %+v, want period 50", w)
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
