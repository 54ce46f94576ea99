package tdd_test

import (
	"fmt"
	"sync"
	"testing"

	"tdd"
)

const concurrentSkiUnit = `
plane(T+7, X) :- plane(T, X), resort(X), offseason(T).
plane(T+2, X) :- plane(T, X), resort(X), winter(T).
offseason(T+10) :- offseason(T).
winter(T+10) :- winter(T).
winter(0..3).
offseason(4..9).
resort(hunter).
plane(0, hunter).
`

// TestDBConcurrentReaders hammers one shared *tdd.DB from many
// goroutines — including the very first query, which certifies the
// period and grows the evaluation window under the facade's lock. Run
// under -race this is the regression test for that locking.
func TestDBConcurrentReaders(t *testing.T) {
	db, err := tdd.OpenUnit(concurrentSkiUnit)
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth from a private, sequentially-used copy.
	seq, err := tdd.OpenUnit(concurrentSkiUnit)
	if err != nil {
		t.Fatal(err)
	}
	wantDeep, err := seq.Ask("plane(1000000, hunter)")
	if err != nil {
		t.Fatal(err)
	}
	wantAns, err := seq.Answers("plane(T, hunter)")
	if err != nil {
		t.Fatal(err)
	}
	wantPeriod, err := seq.Period()
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	const iters = 10
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (g + i) % 4 {
				case 0:
					got, err := db.Ask("plane(1000000, hunter)")
					if err != nil {
						errs <- err
					} else if got != wantDeep {
						errs <- fmt.Errorf("Ask deep = %v, want %v", got, wantDeep)
					}
				case 1:
					got, err := db.Answers("plane(T, hunter)")
					if err != nil {
						errs <- err
					} else if len(got) != len(wantAns) {
						errs <- fmt.Errorf("Answers len = %d, want %d", len(got), len(wantAns))
					}
				case 2:
					got, err := db.Period()
					if err != nil {
						errs <- err
					} else if got != wantPeriod {
						errs <- fmt.Errorf("Period = %v, want %v", got, wantPeriod)
					}
				case 3:
					got, err := db.HoldsAt("plane", 0, "hunter")
					if err != nil {
						errs <- err
					} else if !got {
						errs <- fmt.Errorf("HoldsAt(plane, 0, hunter) = false")
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSpecDBConcurrentReaders does the same against one shared
// *tdd.SpecDB: immutable after ImportSpec, so every mix of readers must
// agree with sequential evaluation.
func TestSpecDBConcurrentReaders(t *testing.T) {
	db, err := tdd.OpenUnit(concurrentSkiUnit)
	if err != nil {
		t.Fatal(err)
	}
	data, err := db.ExportSpec()
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := tdd.ImportSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	wantDeep, err := db.Ask("plane(1000000, hunter)")
	if err != nil {
		t.Fatal(err)
	}
	wantAns, err := db.Answers("plane(T, hunter)")
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	const iters = 10
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (g + i) % 3 {
				case 0:
					got, err := sdb.Ask("plane(1000000, hunter)")
					if err != nil {
						errs <- err
					} else if got != wantDeep {
						errs <- fmt.Errorf("SpecDB.Ask = %v, want %v", got, wantDeep)
					}
				case 1:
					got, err := sdb.Answers("plane(T, hunter)")
					if err != nil {
						errs <- err
					} else if len(got) != len(wantAns) {
						errs <- fmt.Errorf("SpecDB.Answers len = %d, want %d", len(got), len(wantAns))
					}
				case 2:
					got, err := sdb.HoldsAt("plane", 0, "hunter")
					if err != nil {
						errs <- err
					} else if !got {
						errs <- fmt.Errorf("SpecDB.HoldsAt(plane, 0, hunter) = false")
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentCompiledAsks runs the benchmark's eight warm_query texts
// from 8 goroutines against one published snapshot. Each ask compiles
// its query and binds it to the snapshot's store in scratch of its own,
// so under -race this pins that warm evaluation shares nothing writable.
func TestConcurrentCompiledAsks(t *testing.T) {
	db, err := tdd.OpenUnit(concurrentSkiUnit)
	if err != nil {
		t.Fatal(err)
	}
	closed := []string{
		"plane(1000003, hunter)",
		"exists T (plane(T, hunter) & winter(T))",
		"exists T plane(T, nowhere)",
		"forall X (!resort(X) | exists T plane(T, X))",
		"exists X (resort(X) & !exists T plane(T, X))",
		"forall T (winter(T) | offseason(T))",
	}
	open := []struct {
		q     string
		limit int
	}{{"plane(T, hunter)", 0}, {"plane(T, X)", 16}}
	// Sequential ground truth; the first ask certifies and publishes.
	wantBool := make([]bool, len(closed))
	for i, q := range closed {
		if wantBool[i], err = db.Ask(q); err != nil {
			t.Fatal(err)
		}
	}
	wantAns := make([]string, len(open))
	for i, o := range open {
		ans, err := db.AnswersLimit(o.q, o.limit)
		if err != nil {
			t.Fatal(err)
		}
		wantAns[i] = tdd.FormatAnswers(ans)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				for i, q := range closed {
					if got, err := db.Ask(q); err != nil || got != wantBool[i] {
						t.Errorf("Ask(%q) = %v, %v; want %v", q, got, err, wantBool[i])
					}
				}
				for i, o := range open {
					ans, err := db.AnswersLimit(o.q, o.limit)
					if err != nil || tdd.FormatAnswers(ans) != wantAns[i] {
						t.Errorf("AnswersLimit(%q, %d) = %d answers, %v; differs from the sequential run", o.q, o.limit, len(ans), err)
					}
				}
			}
		}()
	}
	wg.Wait()
}
