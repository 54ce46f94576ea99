package tdd_test

import (
	"fmt"
	"reflect"
	"strings"
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

// TestModelFingerprintUnderAsserts: ModelFingerprint hashes one snapshot.
// Readers fingerprint continuously while a writer applies batches that
// each change the model; every fingerprint taken must be the fingerprint
// of the model after some whole number of batches, never a period from
// one snapshot over states from another.
func TestModelFingerprintUnderAsserts(t *testing.T) {
	const batches = 24
	batch := func(i int) string {
		return fmt.Sprintf("resort(r%d). plane(%d, r%d).", i, i%5, i)
	}
	// Reference fingerprints from a sequentially used copy.
	seq, err := tdd.OpenUnit(concurrentSkiUnit)
	if err != nil {
		t.Fatal(err)
	}
	valid := make(map[string]int, batches+1)
	for i := 0; ; i++ {
		fp, err := seq.ModelFingerprint()
		if err != nil {
			t.Fatal(err)
		}
		valid[fp] = i
		if i == batches {
			break
		}
		if _, err := seq.Assert(batch(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(valid) != batches+1 {
		t.Fatalf("%d distinct reference fingerprints for %d models: batches must each change the model", len(valid), batches+1)
	}

	db, err := tdd.OpenUnit(concurrentSkiUnit)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Period(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				fp, err := db.ModelFingerprint()
				if err != nil {
					t.Error(err)
					return
				}
				if _, ok := valid[fp]; !ok {
					t.Errorf("fingerprint %s matches no whole-batch model", fp)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for i := 0; i < batches; i++ {
		if _, err := db.Assert(batch(i)); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}

// TestConcurrentColdAsksShareOneSlot races goal sets for a cold snapshot's
// one sliced slot: three independent chains, every goroutine's first ask
// on a different one, so some are answered from the slice, the others
// certify the full model and release it mid-flight. Every answer must be
// the sequential one; under -race this pins the slot's hand-offs.
func TestConcurrentColdAsksShareOneSlot(t *testing.T) {
	const unit = `
a(T+2) :- a(T).
b(T+3) :- b(T).
c(T+5) :- c(T).
a(0). b(0). c(0).
`
	queries := []string{"a(1000)", "a(1001)", "b(999)", "b(1000)", "c(1000)", "c(1001)", "exists T (a(T) & b(T+1))"}
	seq, err := tdd.OpenUnit(unit)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seq.Period(); err != nil {
		t.Fatal(err)
	}
	want := make([]bool, len(queries))
	for i, q := range queries {
		if want[i], err = seq.Ask(q); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 20; round++ {
		db, err := tdd.OpenUnit(unit)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range queries {
					j := (i + 2*g) % len(queries)
					if got, err := db.Ask(queries[j]); err != nil || got != want[j] {
						t.Errorf("round %d: Ask(%q) = %v, %v; want %v", round, queries[j], got, err, want[j])
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// cycleUnit steps a token around a 14-cycle of next facts: it certifies
// (b=1, p=14) at window 22, and never's body, which asks for a node both
// odd and even, has no match at any time point.
func cycleUnit() string {
	var b strings.Builder
	b.WriteString("step(T+1, Y) :- step(T, X), next(X, Y).\nnever(T+9) :- step(T+9, X), odd(X), even(X).\nstep(0, c0).\n")
	for i := 0; i < 14; i++ {
		fmt.Fprintf(&b, "next(c%d, c%d).\n", i, (i+1)%14)
		if i%2 == 0 {
			fmt.Fprintf(&b, "even(c%d).\n", i)
		} else {
			fmt.Fprintf(&b, "odd(c%d).\n", i)
		}
	}
	return b.String()
}

// TestLintDuringWarmReads lints a certified DB while warm asks and engine
// reads run beside it. Lint reads the certified evaluator and writes
// nothing, so under -race the two share nothing writable, and the
// certificate's window and the engine's counters stay where
// certification left them.
func TestLintDuringWarmReads(t *testing.T) {
	db, err := tdd.OpenUnit(cycleUnit())
	if err != nil {
		t.Fatal(err)
	}
	before, err := db.Work()
	if err != nil {
		t.Fatal(err)
	}
	if p := before.Period; p.Base != 1 || p.P != 14 {
		t.Fatalf("period %v, want (b=1, p=14)", p)
	}
	detail := db.EngineDetail()

	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if ok, err := db.Ask("step(5, c5)"); err != nil || !ok {
				t.Errorf("Ask(step(5, c5)) = %v, %v; want true", ok, err)
			}
			if db.EngineDetail().Firings == 0 {
				t.Error("warm EngineDetail lost the certification's firings")
			}
			if i == 0 {
				close(started)
			}
		}
	}()
	<-started
	var flagged []int
	for _, d := range db.Lint("").Diagnostics {
		if d.Code == "TDL004" {
			flagged = append(flagged, d.RuleIdx)
		}
	}
	<-done
	if len(flagged) != 1 || flagged[0] != 1 {
		t.Errorf("TDL004 on rules %v, want [1]", flagged)
	}
	after, err := db.Work()
	if err != nil {
		t.Fatal(err)
	}
	if after.Window != before.Window {
		t.Errorf("Lint moved the window from %d to %d", before.Window, after.Window)
	}
	if got := db.EngineDetail(); !reflect.DeepEqual(got, detail) {
		t.Errorf("Lint moved the engine's counters:\nbefore %+v\nafter  %+v", detail, got)
	}
}

// TestForkLineagesShareLogs: forks share their parent's symbol tables
// and append past their end, so two lineages of one warm parent write
// into one backing array until one of them loses a slot to the other and
// copies; the database they share is the store's shards, from which
// Facts() reads it back. P is a warm snapshot whose logs have spare
// capacity; A := P.Fork() asserts x, taking the slot after P's end. Then
// P's lineage and a second fork of P (both find that slot taken and
// copy), and A's lineage and a fork of A (racing for the next slot) each
// assert batches with fresh constants — and, once, a new predicate — at
// once, while readers ask P's original snapshot. Every tip's Facts(),
// ModelFingerprint() and answers equal a cold OpenUnit of its own
// history; under -race no lineage reads what another writes.
func TestForkLineagesShareLogs(t *testing.T) {
	const batches = 40
	root, err := tdd.OpenUnit(concurrentSkiUnit)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := root.Period(); err != nil {
		t.Fatal(err)
	}
	p := root.Fork()
	first := "resort(r0). plane(3, r0).\n"
	if _, err := p.Assert(first); err != nil {
		t.Fatal(err)
	}
	snap := p.Fork()
	queries := []string{"plane(1000003, hunter)", "exists T plane(T, r0)", "resort(X)", "plane(12, X)"}
	want := func(db *tdd.DB) []string {
		var out []string
		for _, q := range queries {
			if strings.Contains(q, "X") {
				ans, err := db.Answers(q)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, tdd.FormatAnswers(ans))
				continue
			}
			ok, err := db.Ask(q)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprint(ok))
		}
		return out
	}
	snapAnswers := want(snap)

	x := "resort(x). plane(5, x).\n"
	a := p.Fork()
	if _, err := a.Assert(x); err != nil {
		t.Fatal(err)
	}
	type lineage struct {
		db      *tdd.DB
		history string
	}
	lines := []*lineage{
		{db: p, history: first},
		{db: p.Fork(), history: first},
		{db: a, history: first + x},
		{db: a.Fork(), history: first + x},
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				if got := want(snap); !reflect.DeepEqual(got, snapAnswers) {
					t.Errorf("snapshot answers %v, want %v", got, snapAnswers)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for li, l := range lines {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < batches; i++ {
				b := fmt.Sprintf("resort(l%d_%d). plane(%d, l%d_%d). plane(%d, r0).\n", li, i, i%10, li, i, 11+i)
				if i == batches/2 {
					b += fmt.Sprintf("visited%d(l%d_%d).\n", li, li, i)
				}
				if _, err := l.db.Assert(b); err != nil {
					t.Error(err)
					return
				}
				l.history += b
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()
	if t.Failed() {
		return
	}
	for li, l := range lines {
		cold, err := tdd.OpenUnit(concurrentSkiUnit + l.history)
		if err != nil {
			t.Fatal(err)
		}
		if got, exp := l.db.Facts(), cold.Facts(); got != exp {
			t.Errorf("lineage %d: facts differ from a cold open of its history\n%s\nvs\n%s", li, got, exp)
		}
		gotFP, err := l.db.ModelFingerprint()
		if err != nil {
			t.Fatal(err)
		}
		expFP, err := cold.ModelFingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if gotFP != expFP {
			t.Errorf("lineage %d: model fingerprint %s, cold open %s", li, gotFP, expFP)
		}
		if got, exp := want(l.db), want(cold); !reflect.DeepEqual(got, exp) {
			t.Errorf("lineage %d: answers %v, cold open %v", li, got, exp)
		}
	}
}

// TestForkAssertDuringClassedAsks: two forks of one warm parent, one
// asserting batches and asking on each snapshot it makes, the other
// asking quantified and open queries whose temporal variables are read
// at offset 0 — decided once per state class — from two goroutines.
// Under -race this checks that a writer's clone and its re-classing
// write nothing the readers of the parent's class axis read, and the
// readers' answers stay the parent's.
func TestForkAssertDuringClassedAsks(t *testing.T) {
	const batches = 30
	parent, err := tdd.OpenUnit(concurrentSkiUnit)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parent.Period(); err != nil {
		t.Fatal(err)
	}
	closed := []string{
		"forall T (winter(T) | offseason(T))",
		"exists T (plane(T, hunter) & winter(T))",
		"forall X (!resort(X) | exists T plane(T, X))",
		"exists X (resort(X) & !exists T plane(T, X))",
	}
	open := []string{"plane(T, hunter)", "winter(T) & plane(T, X)"}
	answers := func(db *tdd.DB) []string {
		var out []string
		for _, q := range closed {
			ok, err := db.Ask(q)
			if err != nil {
				t.Error(err)
				return nil
			}
			out = append(out, fmt.Sprint(ok))
		}
		for _, q := range open {
			for _, limit := range []int{0, 3} {
				ans, err := db.AnswersLimit(q, limit)
				if err != nil {
					t.Error(err)
					return nil
				}
				out = append(out, tdd.FormatAnswers(ans))
			}
		}
		return out
	}
	want := answers(parent)
	asker, writer := parent.Fork(), parent.Fork()
	done := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				if got := answers(asker); !reflect.DeepEqual(got, want) {
					t.Errorf("fork answers %v, want the parent's %v", got, want)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for i := 0; i < batches; i++ {
		if _, err := writer.Assert(fmt.Sprintf("resort(w%d). plane(%d, w%d).\n", i, i%10, i)); err != nil {
			t.Fatal(err)
		}
		if ok, err := writer.Ask("forall X (!resort(X) | exists T plane(T, X))"); err != nil || !ok {
			t.Fatalf("batch %d: every resort has a plane = %v, %v; want true", i, ok, err)
		}
	}
	close(done)
	readers.Wait()
}
