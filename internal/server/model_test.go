package server

// The model-based oracle: one harness checks every evaluation path the
// repository has against one reference. By Theorem 3.4 the states on
// [0, b+p) fix the whole infinite model, and by Proposition 3.1 every
// temporal query is answered on that finite specification, so the
// reference is internal/baseline: naive T_P over period.Detect's window
// schedule, the string-scan period detector on its states, and the
// bottom-up query evaluator over the result.
//
// A script is a program plus a list of steps, each run on up to three
// systems — a tdd.DB, a durable leader Registry and its follower — and
// after every step each of them is checked against the reference computed
// from its own fact history: the same (b, p) or the same
// ErrWindowExceeded, every state on [0, b+p), the non-temporal part, and
// every ask and answer set the step made. After a step that asserts, each
// system's lint must also equal that of a DB opened fresh, the same way,
// on its facts. Every system opens the program from the script's unit, or
// from separate rules and facts sources when the script says so.
// FuzzModel's input bytes are the script (see decodeScript), so Go's fuzz
// minimizer shrinks a failure by dropping steps and rules.

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"tdd"
	"tdd/internal/ast"
	"tdd/internal/baseline"
	"tdd/internal/engine"
	"tdd/internal/parser"
	"tdd/internal/period"
	"tdd/internal/progan"
	"tdd/internal/randgen"
	"tdd/internal/wal"
)

const (
	opOpen    = iota // reopen the DB from its Rules and Facts, with random observability hooks
	opAssert         // a batch of new and duplicate facts, on a cold or a certified DB
	opAsk            // closed queries, on a cold or a certified DB
	opAnswers        // open queries with a limit
	opPeriod         // certify a cold DB through Period
	opFork           // Fork; continue on either branch, the other asserts and is dropped
	opExport         // ExportSpec → ImportSpec, then query the SpecDB
	opCrash          // truncate a copy of the leader's WAL, recover a new leader from it
	opFollow         // the follower catches up with one synchronous poll
	numOps
)

var opNames = [numOps]string{"open", "assert", "ask", "answers", "period", "fork", "export", "crash", "follow"}

// budgets are the window budgets a script can pick; every system and the
// reference certify under the same one.
var budgets = [4]int{64, 256, 32, 16}

// baselineSources are the programs naive T_P was first compared with the
// engine on: the paper's even numbers, a ski schedule, 3-cycle
// reachability and non-temporal feedback; then rule heads with a constant
// the database lacks, so a cold ask that quantifies over constants must
// not answer from its slice, whose domain would miss it.
var baselineSources = []string{
	"even(T+2) :- even(T).\neven(0).",
	`plane(T+7, X) :- plane(T, X), resort(X), offseason(T).
plane(T+2, X) :- plane(T, X), resort(X), winter(T).
offseason(T+9) :- offseason(T).
winter(T+9) :- winter(T).
winter(0). winter(1). winter(2).
offseason(3). offseason(4). offseason(5). offseason(6). offseason(7). offseason(8).
resort(hunter).
plane(0, hunter).`,
	`path(K, X, X) :- node(X), null(K).
path(K+1, X, Z) :- edge(X, Y), path(K, Y, Z).
path(K+1, X, Y) :- path(K, X, Y).
null(0).
node(a). node(b). node(c).
edge(a, b). edge(b, c). edge(c, a).`,
	`p(T+1, X) :- p(T, X).
seen(X) :- p(T, X).
q(T+1, X) :- q(T, X), seen(X).
p(3, a).
q(0, a).`,
	`up(T+1) :- up(T).
tag(T, k) :- up(T).
tag(T, X) :- up(T), item(X).
mark(k) :- tag(T, X).
off(T+2) :- off(T).
up(0).
off(1).
item(j).`,
}

// fixedUnits are the programs a script's first byte selects before the
// random ones: the shipped example units, then baselineSources.
var fixedUnits = func() (units []string) {
	files, _ := filepath.Glob(filepath.Join("..", "..", "examples", "units", "*.tdd"))
	for _, f := range files {
		if src, err := os.ReadFile(f); err == nil {
			units = append(units, string(src))
		}
	}
	return append(units, baselineSources...)
}()

// seedScripts is the seed corpus: every fixed unit and 48 random programs
// of both shapes, each driven through every step kind under the budgets
// 64, 32 and 16, then past failures and a kept mutation catch. A script's
// configuration and step seeds are dealt from its index among the fixed
// units or among the random programs, so adding a fixed unit re-deals no
// random program's script.
func seedScripts() [][]byte {
	deal := func(sel, d int) []byte {
		data := []byte{byte(sel), 0xff, byte(d/4%2)<<5 | byte(d%2)<<4 | []byte{0, 2, 3}[d%3]}
		for i, op := range []byte{opAsk, opAssert, opAsk, opAnswers, opFork, opAssert, opExport, opCrash,
			opFollow, opAssert, opFollow, opOpen, opAsk, opAssert, opCrash, opPeriod} {
			data = append(data, op, byte(d*7+i))
		}
		return data
	}
	var out [][]byte
	for u := range fixedUnits {
		out = append(out, deal(u, u))
	}
	for r := 0; r < 48; r++ {
		out = append(out, deal(len(fixedUnits)+r, r))
	}
	// Kept: the minimized failure of an assert on a DB whose certification
	// had run out of budget, which skipped delta propagation (random
	// program 237 of the non-temporal-heads shape, two of its rules, budget
	// 16); and a cold ask quantifying over the last baseline source's head
	// constant k, which a slice answering over the database's constants
	// alone gets wrong (a seeded mutation of headConstantsCovered).
	return append(out,
		append([]byte{byte(len(fixedUnits) + 237)}, "\x18\x17\x01\x15\x05t"...),
		[]byte{byte(len(fixedUnits) - 1), 0xff, 0, opAsk, 64})
}

func FuzzModel(f *testing.F) {
	for _, data := range seedScripts() {
		f.Add(data)
	}
	f.Fuzz(runModel)
}

// TestKillAndRecoverDifferential drives crash-heavy scripts: batches, and
// a crash at a random record boundary or mid-record of the log, which
// holds the program's whole history, after each.
func TestKillAndRecoverDifferential(t *testing.T) {
	for seed := 0; seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			data := []byte{byte(len(fixedUnits) + seed), 0xff, 0}
			for i := 0; i < 5; i++ {
				data = append(data, opAssert, byte(seed*5+i), opAssert, byte(i), opCrash, byte(seed+i), opFollow, 0)
			}
			runModel(t, data)
		})
	}
}

// decodeScript reads a script: the program (a fixed unit, or a random
// seed past them), a rule-keep mask (bit i keeps rule i; rules past the
// eighth are always kept), a configuration byte (budget in bits 0–1,
// NonTemporalHeads in bit 4), then two bytes per step: the operation and
// the seed of its random choices. Bit 5 of the configuration byte opens
// the program from separate rules and facts sources instead of one unit.
// Bits 2–3 are reserved and ignored: corpus entries that set them decode
// to the same budget, shape and steps as ones that do not.
func decodeScript(t *testing.T, data []byte) (*ast.Program, *ast.Database, byte, [][2]byte) {
	at := func(i int, def byte) byte {
		if i < len(data) {
			return data[i]
		}
		return def
	}
	var prog *ast.Program
	var db *ast.Database
	var err error
	sel, mask, cfg := int(at(0, 0)), at(1, 0xff), at(2, 0)
	if units := fixedUnits; sel < len(units) {
		prog, db, err = parser.ParseUnit(units[sel])
	} else {
		rng := rand.New(rand.NewSource(int64(sel - len(units))))
		opts := randgen.Default()
		opts.NonTemporalHeads = cfg&0x10 != 0
		g := randgen.New(rng, opts)
		if prog, err = g.Program(rng); err == nil {
			db, err = g.Database(rng)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	var kept []ast.Rule
	for i, r := range prog.Rules {
		if i >= 8 || mask&(1<<i) != 0 {
			kept = append(kept, r)
		}
	}
	if prog, err = ast.NewProgram(kept); err != nil {
		t.Fatal(err)
	}
	var steps [][2]byte
	for i := 3; i+1 < len(data) && len(steps) < 24; i += 2 {
		steps = append(steps, [2]byte{data[i] % numOps, data[i+1]})
	}
	return prog, db, cfg, steps
}

// history is a fact set in insertion order.
type history []ast.Fact

func (h history) with(batch []ast.Fact) history {
	seen := make(map[string]bool, len(h))
	for _, f := range h {
		seen[f.String()] = true
	}
	out := append(history(nil), h...)
	for _, f := range batch {
		if !seen[f.String()] {
			seen[f.String()] = true
			out = append(out, f)
		}
	}
	return out
}

// reference is the naive model of a program over a fact history, as a
// baseline.Structure: the states of the last window scanned, quantified
// over the representatives of the certified period.
type reference struct {
	det    baseline.Detection
	store  *engine.Store
	consts []string // the constant domain; nil: the model's own
}

func (r *reference) Store() *engine.Store { return r.store }
func (r *reference) TimePoints() int      { return r.det.Base + r.det.P }
func (r *reference) NormalizeTime(t int) (int, bool) {
	if t >= r.det.Base+r.det.P {
		t = r.det.Base + (t-r.det.Base)%r.det.P
	}
	return t, true
}
func (r *reference) period() tdd.Period { return tdd.Period{Base: r.det.Base, P: r.det.P} }
func (r *reference) ConstantDomain() []string {
	if r.consts != nil {
		return r.consts
	}
	return r.store.Constants()
}

// model is one system under test: a DB and the facts asserted into it.
type model struct {
	name  string
	db    *tdd.DB
	facts history
	ent   *entry // the registry entry serving db; nil for the tdd.DB
	unit  bool   // opened from h.unit rather than from h.rules and facts
}

type harness struct {
	t      *testing.T
	prog   *ast.Program
	rules  string         // prog's source; the systems' lint source in the split form
	unit   string         // rules then the facts: what the systems open; "" in the split form
	preds  []ast.PredInfo // every predicate, by name
	sigs   map[string]ast.PredInfo
	consts []string // query and fact constants: the unit's, two fresh ones, one never asserted
	c      int      // the unit's database depth
	budget int
	refs   map[string]*reference
	lints  map[string]tdd.LintResult // a fresh DB's lint, by fact source

	a       model // the tdd.DB
	opts    []tdd.Option
	leader  *Server
	lts     *httptest.Server
	dir     string
	id      string    // the leader's program; "" when registration failed
	base    history   // its registered facts
	batches []history // and its ingested batches
	fol     *Server   // nil until the first follow
	folSeen history   // the follower's facts
	ghost   *model    // the dropped branch of a fork, checked once
	at      string    // the step running, for failure messages
}

func runModel(t *testing.T, data []byte) {
	prog, db, cfg, steps := decodeScript(t, data)
	h := &harness{t: t, prog: prog, sigs: map[string]ast.PredInfo{}, budget: budgets[cfg&3], refs: map[string]*reference{}, lints: map[string]tdd.LintResult{}, at: "start"}
	for _, m := range []map[string]ast.PredInfo{prog.Preds, db.Preds} {
		for name, pi := range m {
			h.sigs[name] = pi
		}
	}
	for _, pi := range h.sigs {
		h.preds = append(h.preds, pi)
	}
	sort.Slice(h.preds, func(i, j int) bool { return h.preds[i].Name < h.preds[j].Name })
	base := history(nil).with(db.Facts)
	h.c = db.MaxDepth()
	h.consts = append(db.Constants(), "n0", "n1", "zz")
	h.opts = []tdd.Option{tdd.WithMaxWindow(h.budget)}
	h.rules = parser.Render(prog, nil)
	facts := source(base)
	var (
		adb *tdd.DB
		err error
	)
	if cfg&0x20 == 0 {
		h.unit = h.rules + facts
		adb, err = tdd.OpenUnit(h.unit, h.opts...)
	} else {
		adb, err = tdd.Open(h.rules, facts, h.opts...)
	}
	if err != nil {
		t.Fatalf("open: %v\n%s%s", err, h.rules, facts)
	}
	h.a = model{name: "db", db: adb, facts: base, unit: h.unit != ""}

	h.dir = t.TempDir()
	h.startLeader(h.dir)
	var ent *entry
	if h.unit != "" {
		ent, _, err = h.leader.Registry().Register(h.unit, "", "")
	} else {
		ent, _, err = h.leader.Registry().Register("", h.rules, facts)
	}
	if err != nil {
		h.overBudget("register", err, base)
	} else {
		h.id, h.base = ent.ID(), base
	}
	h.checkAll()
	for i, s := range steps {
		h.at = fmt.Sprintf("step %d (%s, arg %d)", i, opNames[s[0]], s[1])
		h.step(s[0], rand.New(rand.NewSource(int64(s[0])<<8|int64(s[1]))))
		h.checkAll()
		if s[0] == opAssert || s[0] == opFork {
			h.checkLint()
		}
	}
}

func (h *harness) startLeader(dir string) {
	var err error
	h.leader, err = New(Config{DataDir: dir, Fsync: "off", MaxWindow: h.budget, Workers: 1})
	if err != nil {
		h.t.Fatalf("leader over %s: %v", dir, err)
	}
	h.lts = httptest.NewServer(h.leader.Handler())
	srv, lts := h.leader, h.lts
	h.t.Cleanup(func() { lts.Close(); srv.Close() })
}

// leaderFacts is the leader's fact history.
func (h *harness) leaderFacts() history {
	facts := h.base
	for _, b := range h.batches {
		facts = facts.with(b)
	}
	return facts
}

// cold reopens the DB from its own Rules and Facts, uncertified.
func (h *harness) cold() {
	db, err := tdd.Open(h.a.db.Rules(), h.a.db.Facts(), h.opts...)
	if err != nil {
		h.t.Fatalf("reopening from Rules and Facts: %v\n%s%s", err, h.a.db.Rules(), h.a.db.Facts())
	}
	h.a.db, h.a.unit = db, false
}

func (h *harness) step(op byte, rng *rand.Rand) {
	switch op {
	case opOpen:
		h.opts = []tdd.Option{tdd.WithMaxWindow(h.budget)}
		for _, o := range []tdd.Option{tdd.WithTrace(tdd.NewTrace()), tdd.WithProfile(), tdd.WithProvenance()} {
			if rng.Intn(2) == 0 {
				h.opts = append(h.opts, o)
			}
		}
		h.cold()
	case opAssert:
		if rng.Intn(2) == 0 {
			h.cold()
		}
		batch := h.batch(rng)
		h.assert(&h.a, batch)
		if h.id == "" {
			return
		}
		if _, _, err := h.leader.Registry().Ingest(h.id, source(batch)); err != nil {
			h.overBudget("ingest", err, h.leaderFacts().with(batch))
		} else {
			h.batches = append(h.batches, batch)
		}
	case opPeriod:
		h.cold() // the check after the step certifies it through Period
	case opAsk:
		if rng.Intn(2) == 0 {
			h.cold()
		}
		qs := make([]string, 4)
		for i := range qs {
			qs[i] = h.formula(rng, 2, nil)
		}
		for _, m := range h.models() {
			for _, q := range qs {
				got, err := m.db.Ask(q)
				h.checkAsk(m.name, q, m.facts, got, err)
			}
		}
	case opAnswers:
		q, limit := h.open(rng), rng.Intn(4)
		for _, m := range h.models() {
			got, err := m.db.AnswersLimit(q, limit)
			h.checkAnswers(m.name, q, limit, m.facts, got, err)
		}
	case opFork:
		other := &model{name: "fork", db: h.a.db.Fork(), facts: h.a.facts, unit: h.a.unit}
		if rng.Intn(2) == 0 {
			other.db, h.a.db = h.a.db, other.db
		}
		h.assert(other, h.batch(rng))
		h.ghost = other
	case opExport:
		for _, m := range h.models() {
			data, err := m.db.ExportSpec()
			if err != nil {
				h.overBudget(m.name+" export", err, m.facts)
				continue
			}
			s, err := tdd.ImportSpec(data)
			if err != nil {
				h.fatalf(m.facts, "%s: import: %v", m.name, err)
			}
			if want := h.ref(h.prog, m.facts).period(); s.Period() != want {
				h.fatalf(m.facts, "%s: imported period %v, reference %v", m.name, s.Period(), want)
			}
			q, limit := h.open(rng), rng.Intn(4)
			got, err := s.AnswersLimit(q, limit)
			h.checkAnswers(m.name+" spec", q, limit, m.facts, got, err)
			q = h.formula(rng, 2, nil)
			ok, err := s.Ask(q)
			h.checkAsk(m.name+" spec", q, m.facts, ok, err)
		}
	case opCrash:
		h.crash(rng)
	case opFollow:
		if h.id == "" {
			return
		}
		if h.fol == nil {
			var err error
			if h.fol, err = New(Config{MaxWindow: h.budget, Workers: 1}); err != nil {
				h.t.Fatal(err)
			}
			fol := h.fol
			h.t.Cleanup(fol.Close)
		}
		(&follower{srv: h.fol, leader: h.lts.URL, client: h.lts.Client()}).poll()
		seq, rev, _ := h.fol.Registry().SeqRev(h.id)
		wseq, wrev, _ := h.leader.Registry().SeqRev(h.id)
		if seq != wseq || rev != wrev {
			h.fatalf(h.leaderFacts(), "follower at (%d, %s), leader at (%d, %s)", seq, rev, wseq, wrev)
		}
		h.folSeen = h.leaderFacts()
	}
}

// crash kills the leader: its WAL directory is copied, wal.log — the
// whole batch history — cut at a random record boundary or inside a
// record, and a new leader recovers from the copy. The durable prefix is
// what the new leader must hold; the follower, now ahead of its leader,
// is dropped.
func (h *harness) crash(rng *rand.Rand) {
	if h.id == "" {
		return
	}
	logPath := filepath.Join("programs", h.id, "wal.log")
	data, err := os.ReadFile(filepath.Join(h.dir, logPath))
	if err != nil {
		h.t.Fatal(err)
	}
	recs, _, err := wal.DecodeRecords(strings.NewReader(string(data)))
	if err != nil {
		h.t.Fatal(err)
	}
	ends := []int64{0}
	for _, rec := range recs {
		buf, err := wal.EncodeRecord(rec)
		if err != nil {
			h.t.Fatal(err)
		}
		ends = append(ends, ends[len(ends)-1]+int64(len(buf)))
	}
	kept := rng.Intn(len(recs) + 1)
	cut := ends[kept]
	if kept < len(recs) && rng.Intn(2) == 0 {
		cut += 1 + rng.Int63n(ends[kept+1]-ends[kept]-1)
	}
	dir := copyDir(h.t, h.dir)
	if err := os.Truncate(filepath.Join(dir, logPath), cut); err != nil {
		h.t.Fatal(err)
	}
	h.lts.Close()
	h.leader.Close()
	h.dir = dir
	h.startLeader(dir)
	h.batches = h.batches[:len(h.batches)-len(recs)+kept]
	// The check after the step compares the recovered leader's model with
	// the reference of the durable prefix.
	seq, _, ok := h.leader.Registry().SeqRev(h.id)
	if !ok || seq != uint64(len(h.batches)) {
		h.fatalf(h.leaderFacts(), "recovered %d batches (known %v), %d are durable", seq, ok, len(h.batches))
	}
	h.fol, h.folSeen = nil, nil
}

// models are the systems a step runs on: the DB, and the leader's and
// the follower's current entries for the registered program.
func (h *harness) models() []*model {
	out := []*model{&h.a}
	for _, s := range []struct {
		name  string
		srv   *Server
		facts history
	}{{"leader", h.leader, h.leaderFacts()}, {"follower", h.fol, h.folSeen}} {
		if h.id == "" || s.srv == nil {
			break
		}
		ent, err := s.srv.Registry().Lookup(h.id)
		if err != nil {
			h.t.Fatalf("%s: lookup: %v", s.name, err)
		}
		out = append(out, &model{name: s.name, db: ent.db, facts: s.facts, ent: ent, unit: h.unit != ""})
	}
	return out
}

func (h *harness) checkAll() {
	h.t.Helper()
	ms := h.models()
	if h.ghost != nil {
		ms = append(ms, h.ghost)
		h.ghost = nil
	}
	for _, m := range ms {
		h.check(m)
	}
}

// checkLint compares each system's lint — the DB's, and the lint the
// leader's and the follower's entries computed when they were built —
// with the lint of a DB opened fresh on the same facts, DeleteSafe flags
// included. A snapshot that reuses its program's rule analysis and
// decides never-fires from firing counts its evaluator inherited from
// its ancestors must report exactly what linting its history from
// scratch does. A system opened from the unit is compared
// with a fresh unit of the same rules followed by its facts, so rule
// positions agree.
func (h *harness) checkLint() {
	h.t.Helper()
	for _, m := range h.models() {
		var got tdd.LintResult
		switch {
		case m.ent != nil:
			got = m.ent.Lint()
		case m.unit:
			got = m.db.Lint(h.unit)
		default:
			got = m.db.Lint(h.rules)
		}
		facts := source(m.facts)
		key := fmt.Sprintf("%v\x00%s", m.unit, facts)
		want, ok := h.lints[key]
		if !ok {
			var (
				db  *tdd.DB
				err error
			)
			if m.unit {
				unit := h.rules + facts
				if db, err = tdd.OpenUnit(unit, tdd.WithMaxWindow(h.budget)); err == nil {
					want = db.Lint(unit)
				}
			} else if db, err = tdd.Open(h.rules, facts, tdd.WithMaxWindow(h.budget)); err == nil {
				want = db.Lint(h.rules)
			}
			if err != nil {
				h.fatalf(m.facts, "%s: reopening: %v", m.name, err)
			}
			h.lints[key] = want
		}
		if !reflect.DeepEqual(got, want) {
			h.fatalf(m.facts, "%s: lint (delete-safe rules %v)\n%sfresh DB on the same facts (delete-safe rules %v)\n%s",
				m.name, got.DeleteSafeRules(), got.Format(""), want.DeleteSafeRules(), want.Format(""))
		}
	}
}

// check compares one system with the reference of its own facts: the
// period or the budget error, every state on [0, b+p), and every
// non-temporal relation.
func (h *harness) check(m *model) {
	h.t.Helper()
	r := h.ref(h.prog, m.facts)
	per, err := m.db.Period()
	if !r.det.OK {
		h.overBudget(m.name+" period", err, m.facts)
		return
	}
	if err != nil || per != r.period() {
		h.fatalf(m.facts, "%s: period %v (%v), reference %v", m.name, per, err, r.period())
	}
	for t := 0; t < r.det.Base+r.det.P; t++ {
		got, err := m.db.StateAt(t)
		var want []string
		for _, f := range r.store.State(t) {
			want = append(want, f.String())
		}
		if err != nil || !slices.Equal(got, want) {
			h.fatalf(m.facts, "%s: state %d = %v (%v), reference %v", m.name, t, got, err, want)
		}
	}
	for _, pi := range h.preds {
		if !pi.Temporal {
			q, _ := openAtom(pi)
			got, err := m.db.Answers(q)
			h.checkAnswers(m.name, q, 0, m.facts, got, err)
		}
	}
}

// fatalf fails the script at the current step, printing the program and
// the facts.
func (h *harness) fatalf(facts history, format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("%s: "+format+"\nprogram:\n%sfacts:\n%s", append(append([]any{h.at}, args...), parser.Render(h.prog, nil), source(facts))...)
}

// overBudget requires err to be the budget error, and the reference to
// agree that facts have no period within the budget.
func (h *harness) overBudget(what string, err error, facts history) {
	h.t.Helper()
	if ok := h.ref(h.prog, facts).det.OK; ok || !errors.Is(err, period.ErrWindowExceeded) {
		h.fatalf(facts, "%s: error %v; the reference certifies within %d: %v", what, err, h.budget, ok)
	}
}

// assert applies a batch to m: a certified DB re-certifies and refuses a
// batch that leaves the budget, a cold one just records it.
func (h *harness) assert(m *model, batch []ast.Fact) {
	if _, err := m.db.Assert(source(batch)); err != nil {
		h.overBudget(m.name+" assert", err, m.facts.with(batch))
		return
	}
	m.facts = m.facts.with(batch)
}

// ref returns the reference model of prog over facts, computed once.
func (h *harness) ref(prog *ast.Program, facts history) *reference {
	db, err := ast.NewDatabase(facts)
	if err != nil {
		h.t.Fatal(err)
	}
	key := prog.String() + "\x00" + db.String()
	r := h.refs[key]
	if r != nil {
		return r
	}
	if r, err = naiveModel(prog, db, h.budget); err != nil {
		h.t.Fatal(err)
	}
	h.refs[key] = r
	return r
}

// naiveModel is the reference model of prog over db: naive T_P over
// period.Detect's window schedule, certified within budget.
func naiveModel(prog *ast.Program, db *ast.Database, budget int) (*reference, error) {
	r := &reference{}
	var err error
	r.det = baseline.Detect(func(m int) []string {
		keys := make([]string, m+1)
		if err != nil {
			return keys
		}
		if r.store, _, err = baseline.NaiveTP(prog, db, m); err != nil {
			return keys
		}
		for t := range keys {
			keys[t] = r.store.StateKey(t)
		}
		return keys
	}, db.MaxDepth(), period.Lookback(prog), period.MaxHeadDepth(prog), budget)
	return r, err
}

func (h *harness) parse(q string) ast.Query {
	parsed, err := parser.ParseQuery(q, h.sigs)
	if err != nil {
		h.t.Fatalf("generated query %q: %v", q, err)
	}
	return parsed
}

// checkAsk compares a closed query's answer with the reference. Over
// budget, a cold DB may still answer from the query's relevance slice;
// then the answer must be the slice's reference, quantified over the
// database's constants. (Within budget the full reference is the judge, so
// a wrong slice cannot hide behind progan computing both.)
func (h *harness) checkAsk(lane, q string, facts history, got bool, err error) {
	h.t.Helper()
	parsed := h.parse(q)
	r := h.ref(h.prog, facts)
	if !r.det.OK {
		if err != nil {
			h.overBudget(lane+" "+q, err, facts)
			return
		}
		sl := progan.SliceOf(h.prog, progan.QueryPreds(parsed))
		prog, _ := sl.Program()
		if r = h.ref(prog, sl.FilterFacts(facts)); !r.det.OK {
			h.fatalf(facts, "%s: %q = %v, but neither the model nor its slice certifies within %d", lane, q, got, h.budget)
		}
		r = &reference{det: r.det, store: r.store, consts: (&ast.Database{Facts: facts}).Constants()}
	}
	if want := baseline.Holds(r, parsed); err != nil || got != want {
		h.fatalf(facts, "%s: %q = %v (%v), reference %v", lane, q, got, err, want)
	}
}

func (h *harness) checkAnswers(lane, q string, limit int, facts history, ans []tdd.Answer, err error) {
	h.t.Helper()
	r := h.ref(h.prog, facts)
	if !r.det.OK {
		h.overBudget(lane+" "+q, err, facts)
		return
	}
	want := baseline.Answers(r, h.parse(q))
	if limit > 0 && len(want) > limit {
		want = want[:limit]
	}
	got := make([]string, len(ans))
	for i, a := range ans {
		got[i] = a.String()
	}
	if err != nil || !slices.Equal(got, want) {
		h.fatalf(facts, "%s: answers to %q (limit %d) = %q (%v), reference %q", lane, q, limit, got, err, want)
	}
}

// batch draws one to three facts: duplicates of the DB's facts, new ones
// over the unit's predicates, some with fresh constants or far times.
func (h *harness) batch(rng *rand.Rand) []ast.Fact {
	var out []ast.Fact
	for n := 1 + rng.Intn(3); len(out) < n; {
		if len(h.a.facts) > 0 && rng.Intn(4) == 0 {
			out = append(out, h.a.facts[rng.Intn(len(h.a.facts))])
			continue
		}
		pi := h.preds[rng.Intn(len(h.preds))]
		f := ast.Fact{Pred: pi.Name, Temporal: pi.Temporal}
		if pi.Temporal {
			f.Time = rng.Intn(h.c + 4)
			if rng.Intn(6) == 0 {
				f.Time = h.c + 4 + rng.Intn(12)
			}
		}
		for i := 0; i < pi.Arity; i++ {
			f.Args = append(f.Args, h.consts[rng.Intn(len(h.consts)-1)])
		}
		out = append(out, f)
	}
	return out
}

// source renders facts as a fact source: alone, score(10, john) would
// parse as temporal, so Render pins such sorts with a directive.
func source(facts []ast.Fact) string {
	db, _ := ast.NewDatabase(facts)
	return parser.Render(nil, db)
}

type variable struct {
	name     string
	temporal bool
}

func atom(pred string, args []string) string {
	if len(args) == 0 {
		return pred
	}
	return pred + "(" + strings.Join(args, ", ") + ")"
}

// openAtom is pi over fresh variables — T in the temporal position, X0,
// X1, ... in the data positions — and those variables.
func openAtom(pi ast.PredInfo) (string, []variable) {
	var args []string
	var scope []variable
	for i := -1; i < pi.Arity; i++ {
		v := variable{name: fmt.Sprintf("X%d", i)}
		if i < 0 {
			if !pi.Temporal {
				continue
			}
			v = variable{name: "T", temporal: true}
		}
		args, scope = append(args, v.name), append(scope, v)
	}
	return atom(pi.Name, args), scope
}

// term draws an argument of one sort: a variable in scope, or a ground
// term — a time near the database or far past it, or a constant.
func (h *harness) term(rng *rand.Rand, temporal bool, scope []variable) string {
	var vs []string
	for _, v := range scope {
		if v.temporal == temporal {
			vs = append(vs, v.name)
		}
	}
	switch {
	case len(vs) > 0 && rng.Intn(3) > 0:
		v := vs[rng.Intn(len(vs))]
		if temporal && rng.Intn(3) == 0 {
			v += fmt.Sprintf("+%d", 1+rng.Intn(2))
		}
		return v
	case temporal && rng.Intn(4) == 0:
		return fmt.Sprint(1000000 + rng.Intn(30))
	case temporal:
		return fmt.Sprint(rng.Intn(h.c + 8))
	}
	return h.consts[rng.Intn(len(h.consts))]
}

// atom draws an atom over pi; v, when named, fills one argument of its sort.
func (h *harness) atom(rng *rand.Rand, pi ast.PredInfo, scope []variable, v variable) string {
	var args []string
	if pi.Temporal {
		args = append(args, h.term(rng, true, scope))
	}
	for i := 0; i < pi.Arity; i++ {
		args = append(args, h.term(rng, false, scope))
	}
	switch {
	case v.name == "":
	case v.temporal:
		args[0] = v.name
	default:
		args[len(args)-1-rng.Intn(pi.Arity)] = v.name
	}
	return atom(pi.Name, args)
}

// formula draws a closed query: atoms under negation, conjunction,
// disjunction and both quantifiers at both sorts, each quantified
// variable guarded by an atom that mentions it.
func (h *harness) formula(rng *rand.Rand, depth int, scope []variable) string {
	pi := h.preds[rng.Intn(len(h.preds))]
	if depth == 0 || rng.Intn(4) == 0 {
		return h.atom(rng, pi, scope, variable{})
	}
	sub := func() string { return h.formula(rng, depth-1, scope) }
	switch op := rng.Intn(5); {
	case op == 0:
		return "!(" + sub() + ")"
	case op == 1:
		return "(" + sub() + " & " + sub() + ")"
	case op == 2:
		return "(" + sub() + " | " + sub() + ")"
	case pi.Arity == 0 && !pi.Temporal:
		return h.atom(rng, pi, scope, variable{})
	default:
		v := variable{name: fmt.Sprintf("X%d", len(scope))}
		if v.temporal = pi.Temporal && (pi.Arity == 0 || rng.Intn(2) == 0); v.temporal {
			v.name = fmt.Sprintf("T%d", len(scope))
		}
		guard := h.atom(rng, pi, scope, v)
		body := h.formula(rng, depth-1, append(scope[:len(scope):len(scope)], v))
		if op == 3 {
			return "exists " + v.name + " (" + guard + " & " + body + ")"
		}
		return "forall " + v.name + " (!" + guard + " | " + body + ")"
	}
}

// open draws an open query: an atom over variables, sometimes conjoined
// with a negated atom over the same variables.
func (h *harness) open(rng *rand.Rand) string {
	q, scope := openAtom(h.preds[rng.Intn(len(h.preds))])
	if rng.Intn(2) == 0 {
		q += " & !" + h.atom(rng, h.preds[rng.Intn(len(h.preds))], scope, variable{})
	}
	return q
}
