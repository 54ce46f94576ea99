package parser

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"tdd/internal/ast"
	"tdd/internal/workload"
)

// TestAllocBudgetParseDatabase: a parse sizes its clause list, argument
// arena and fact list once. A fact of the bench's ski database costs at
// most 250 bytes; an interval point exactly its ast.Fact and args (one
// regrowth passes that); a non-ground interval fails before sizing for its
// points; a 64-atom query costs no more than when each atom grew its args.
// Neither a comment nor a quoted constant sizes a buffer: a 1 MiB comment
// of dots costs at most 4 KB, and a 1 MiB quoted constant of commas no
// more than before the parser presized its buffers (5 242 848 bytes).
func TestAllocBudgetParseDatabase(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, ski := workload.Ski(workload.SkiParams{YearLen: 365, Resorts: 64, Planes: 128, Holidays: 10, Seed: 1})
	skiDB, err := ParseDatabase(ski)
	if err != nil {
		t.Fatal(err)
	}
	atoms := make([]string, 64)
	for i := range atoms {
		atoms[i] = fmt.Sprintf("r%d(T, c%d)", i, i)
	}
	db := func(src string) bool { _, err := ParseDatabase(src); return err == nil }
	query := func(src string) bool { _, err := ParseQuery(src, nil); return err == nil }
	rejects := func(src string) bool { return !db(src) }
	// bytes returns the least bytes allocated by three parses of src.
	bytes := func(parse func(string) bool, src string) (least uint64) {
		var m0, m1 runtime.MemStats
		for i := 0; i < 3; i++ {
			runtime.ReadMemStats(&m0)
			ok := parse(src)
			runtime.ReadMemStats(&m1)
			if !ok {
				t.Fatalf("%.40s: parsed otherwise than expected", src)
			}
			if b := m1.TotalAlloc - m0.TotalAlloc; i == 0 || b < least {
				least = b
			}
		}
		return least
	}
	for _, c := range []struct {
		name      string
		parse     func(string) bool
		src, base string  // what src allocates past base is measured
		units     int     // the facts, points or atoms in src past base
		budget    float64 // bytes per unit
	}{
		{"ski database", db, ski, "", len(skiDB.Facts), 250},
		{"interval points", db, "winter(0..4095, alps).", "winter(0..0, alps).", 4095, float64(unsafe.Sizeof(ast.Fact{}) + unsafe.Sizeof("alps"))},
		{"non-ground interval", rejects, "p(0..1048575, X).", "", 1, 4096},
		{"comment of dots", db, "%" + strings.Repeat(".", 1<<20), "", 1, 4096},
		{"quoted constant of commas", db, "p('" + strings.Repeat(",", 1<<20) + "').", "", 1, 5.25e6},
		{"64-atom query", query, "exists T (" + strings.Join(atoms, " & ") + ")", "", 64, 62824.0 / 64},
	} {
		b := bytes(c.parse, c.src)
		if c.base != "" {
			b -= bytes(c.parse, c.base)
		}
		t.Logf("%s: %d bytes for %d units", c.name, b, c.units)
		if float64(b) > c.budget*float64(c.units) {
			t.Errorf("%s: %d bytes for %d units, budget %.1f per unit", c.name, b, c.units, c.budget)
		}
	}
}
