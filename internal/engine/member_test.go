package engine

// Membership steps: a body literal bound on every column is one lookup in
// its shard's membership table, never a bound-column index bucket, and the
// work the counters report is what the index bucket reported. scripts/ci.sh
// names TestMembershipSteps.

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"tdd/internal/ast"
	"tdd/internal/randgen"
	"tdd/internal/workload"
)

// memberCounts is what TestMembershipSteps pins of E1's ski model: the
// Stats counts and, per rule in program order, the profiled invocations
// and each body literal's scanned/matched cells per stratum.
type memberCounts struct {
	derived, firings int
	index            map[string]IndexStat
	profile          []string
}

// memberCountsOf reads e's memberCounts.
func memberCountsOf(e *Evaluator) memberCounts {
	st := e.Stats()
	c := memberCounts{derived: st.Derived, firings: st.Firings, index: map[string]IndexStat{}}
	for pred, ix := range st.Index {
		c.index[pred] = *ix
	}
	for ri, rec := range e.ctr.rules {
		var calls int64
		for _, s := range rec.strata {
			calls += s.calls
		}
		c.profile = append(c.profile, fmt.Sprintf("rule %d calls %d", ri, calls))
		n := len(rec.lits)
		for li := 0; li < n; li++ {
			cells := make([]string, len(rec.strata))
			for b := range rec.strata {
				cells[b] = fmt.Sprintf("%d/%d", rec.cells[b*n+li].scanned, rec.cells[b*n+li].matched)
			}
			c.profile = append(c.profile, fmt.Sprintf("rule %d lit %d: %s", ri, li, strings.Join(cells, " ")))
		}
	}
	return c
}

// checkMemberSteps requires every step of e's main and delta plans to be
// a member step exactly when every column of its literal is a constant or
// bound by the pin or an earlier step and its arity is 1 to 32, a member
// step's mask to cover every column, and returns how many member steps
// there are.
func checkMemberSteps(t *testing.T, what string, e *Evaluator) int {
	t.Helper()
	e.planJoins()
	members := 0
	for i := range e.rules {
		r := &e.rules[i]
		plans := append([]joinPlan{e.plans[i]}, e.deltaPlans[i]...)
		for pi, plan := range plans {
			pin := pi - 1
			bound := make([]bool, r.nslots)
			bindAll := func(li int) {
				for _, c := range r.bodyC[li] {
					if c.slot >= 0 {
						bound[c.slot] = true
					}
				}
			}
			if pin >= 0 {
				bindAll(pin)
			}
			for _, st := range plan.steps {
				pat := r.bodyC[st.lit]
				all := true
				for _, c := range pat {
					all = all && (c.slot < 0 || bound[c.slot])
				}
				want := all && len(pat) >= 1 && len(pat) <= 32
				if st.member != want {
					t.Fatalf("%s: rule %s, pin %d: literal %d (%s) member = %v, want %v\nplans:\n%s",
						what, r.text, pin, st.lit, r.body[st.lit].String(), st.member, want, e.PlanText())
				}
				if st.member {
					members++
					if !coversRow(st.mask, len(pat)) {
						t.Fatalf("%s: rule %s: member step %d has mask %x", what, r.text, st.lit, st.mask)
					}
				}
				bindAll(st.lit)
			}
		}
	}
	return members
}

// coversRow reports whether mask covers every column of a row of the
// given arity, which a mask can only do for arity 1 to 32.
func coversRow(mask uint32, arity int) bool {
	return arity >= 1 && arity <= 32 && uint64(mask) == 1<<uint(arity)-1
}

// checkNoRowIndex requires that no shard of s, nor the base of an
// overlay, has built an index whose mask covers every column.
func checkNoRowIndex(t *testing.T, what string, s *Store) {
	t.Helper()
	check := func(pred int, tm int, rs *relset) {
		for ; rs != nil; rs = rs.base {
			tbl := rs.idx.Load()
			if tbl == nil {
				continue
			}
			for _, ix := range tbl.entries {
				if coversRow(ix.mask, int(rs.arity)) {
					t.Fatalf("%s: %s at %d has an index of mask %x over all %d columns",
						what, s.syms.pred(uint32(pred)).name, tm, ix.mask, rs.arity)
				}
			}
		}
	}
	for i := range s.rels {
		pr := &s.rels[i]
		for _, rs := range []*relset{pr.nt, pr.prop, pr.spare, pr.db} {
			check(i, -1, rs)
		}
		pr.each(func(tm int, rs *relset) { check(i, tm, rs) })
	}
}

// wideSrc is a program whose literals are bound by constants on all 32
// and all 33 columns: the first is a member step, the second, past what a
// mask can cover, an index bucket on its first 32 columns.
func wideSrc() string {
	cols := func(n int) string {
		c := make([]string, n)
		for i := range c {
			c[i] = fmt.Sprintf("c%d", i)
		}
		return strings.Join(c, ", ")
	}
	return fmt.Sprintf("hit(T+1) :- tick(T), w32(%s), w33(%s).\ntick(T+1) :- tick(T).\ntick(0).\nw32(%s).\nw33(%s).\n",
		cols(32), cols(33), cols(32), cols(33))
}

// TestMembershipSteps: on E1's ski model, E8's reachability, a program
// of 32- and 33-column literals and a randgen corpus, a plan step is a
// member step exactly when its literal is bound on every column and has 1
// to 32 of them; after EnsureWindow, and after PropagateDelta on a clone,
// no shard holds an index over every column; and E1's Stats and profile
// cells, cold and after the delta, are those the index-bucket join
// reported (pinned from it).
func TestMembershipSteps(t *testing.T) {
	type row struct {
		name    string
		prog    *ast.Program
		db      *ast.Database
		window  int
		delta   []ast.Fact // facts a clone inserts and propagates
		members int        // member steps over all plans; -1 unpinned
		holds   []ast.Fact // facts the model must hold after the delta
		cold    *memberCounts
		after   *memberCounts
	}
	rules, facts := workload.Ski(workload.SkiParams{YearLen: 40, Resorts: 1024, Planes: 32, Holidays: 4, Seed: 42})
	prog, db := mustTDD(t, rules+facts)
	rows := []row{{
		name: "E1 ski", prog: prog, db: db, window: 120,
		delta: []ast.Fact{ntfact("resort", "rnew"), tfact("plane", 3, "rnew"), tfact("plane", 5, "r7"),
			tfact("holiday", 9), tfact("plane", 4, "nowhere")},
		members: 12,
		holds:   []ast.Fact{tfact("plane", 5, "rnew")},
		cold: &memberCounts{1174, 1208, map[string]IndexStat{
			"resort": {1119, 0}, "plane": {0, 80}, "offseason": {0, 114}, "winter": {0, 81}, "holiday": {0, 20}},
			[]string{
				"rule 0 calls 114",
				"rule 0 lit 0: 0/0 0/0 0/0 0/0 0/0 79/79 110/110 270/270",
				"rule 0 lit 1: 0/0 0/0 0/0 0/0 0/0 79/79 110/110 270/270",
				"rule 0 lit 2: 0/0 0/0 0/0 0/0 0/0 16/16 16/16 34/34",
				"rule 1 calls 119",
				"rule 1 lit 0: 0/0 0/0 2/2 6/6 33/33 0/0 274/274 294/294",
				"rule 1 lit 1: 0/0 0/0 2/2 6/6 33/33 0/0 274/274 294/294",
				"rule 1 lit 2: 1/1 1/1 2/2 4/4 8/8 0/0 16/16 16/16",
				"rule 2 calls 120",
				"rule 2 lit 0: 0/0 0/0 0/0 0/0 0/0 15/15 0/0 36/36",
				"rule 2 lit 1: 0/0 0/0 0/0 0/0 0/0 15/15 0/0 36/36",
				"rule 2 lit 2: 0/0 0/0 0/0 0/0 0/0 4/4 0/0 8/8",
				"rule 3 calls 81",
				"rule 3 lit 0: 0/0 0/0 0/0 0/0 0/0 16/16 16/16 16/16",
				"rule 4 calls 81",
				"rule 4 lit 0: 1/1 1/1 2/2 4/4 8/8 0/0 16/16 1/1",
				"rule 5 calls 81",
				"rule 5 lit 0: 0/0 0/0 0/0 0/0 0/0 4/4 0/0 4/4",
			}},
		after: &memberCounts{1520, 1644, map[string]IndexStat{
			"resort": {2201, 0}, "plane": {234, 83}, "offseason": {0, 253}, "winter": {0, 278}, "holiday": {0, 60}},
			[]string{
				"rule 0 calls 558",
				"rule 0 lit 0: 0/0 0/0 2/2 5/5 17/17 94/94 213/213 459/459",
				"rule 0 lit 1: 1/1 1/1 3/3 8/8 25/25 110/110 245/245 509/509",
				"rule 0 lit 2: 0/0 0/0 0/0 0/0 0/0 31/31 53/53 121/121",
				"rule 1 calls 585",
				"rule 1 lit 0: 0/0 0/0 4/4 13/13 54/54 16/16 377/377 500/500",
				"rule 1 lit 1: 1/1 1/1 5/5 14/14 58/58 31/31 409/409 555/555",
				"rule 1 lit 2: 1/1 1/1 4/4 10/10 29/29 0/0 82/82 118/118",
				"rule 2 calls 590",
				"rule 2 lit 0: 0/0 0/0 2/2 7/7 24/24 31/31 128/128 273/273",
				"rule 2 lit 1: 1/1 1/1 3/3 8/8 27/27 46/46 160/160 329/329",
				"rule 2 lit 2: 0/0 0/0 0/0 0/0 4/4 7/7 3/3 41/41",
				"rule 3 calls 81",
				"rule 3 lit 0: 0/0 0/0 0/0 0/0 0/0 16/16 16/16 16/16",
				"rule 4 calls 81",
				"rule 4 lit 0: 1/1 1/1 2/2 4/4 8/8 0/0 16/16 1/1",
				"rule 5 calls 83",
				"rule 5 lit 0: 0/0 0/0 0/0 0/0 1/1 4/4 1/1 4/4",
			}},
	}}
	rules, facts = workload.Reachability(workload.ReachParams{Nodes: 48, Edges: 96, Seed: 13})
	prog, db = mustTDD(t, rules+facts)
	rows = append(rows, row{name: "E8 reach", prog: prog, db: db, window: 12,
		delta: []ast.Fact{ntfact("edge", "n0", "n47"), ntfact("node", "n48"), ntfact("edge", "n48", "n0")}})
	prog, db = mustTDD(t, wideSrc())
	rows = append(rows, row{name: "32 and 33 columns", prog: prog, db: db, window: 6, members: 3,
		delta: []ast.Fact{tfact("tick", 2)}, holds: []ast.Fact{tfact("hit", 6)}})
	shapes := []randgen.Options{randgen.Default(), randgen.Default()}
	shapes[1].NonTemporalHeads = true
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randgen.New(rng, shapes[seed%2])
		prog, err := g.Program(rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		db, err := g.Database(rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// The delta moves each database fact one time point later or, if
		// non-temporal, reverses its arguments: some are new, some not.
		var delta []ast.Fact
		for _, f := range db.Facts {
			f = ast.Fact{Pred: f.Pred, Temporal: f.Temporal, Time: f.Time + 1, Args: append([]string(nil), f.Args...)}
			if !f.Temporal {
				f.Time = 0
				for i, j := 0, len(f.Args)-1; i < j; i, j = i+1, j-1 {
					f.Args[i], f.Args[j] = f.Args[j], f.Args[i]
				}
			}
			delta = append(delta, f)
		}
		rows = append(rows, row{name: fmt.Sprintf("randgen seed %d", seed), prog: prog, db: db, window: 16, delta: delta, members: -1})
	}

	corpusMembers, corpusProbes := 0, 0
	for _, rw := range rows {
		e, err := New(rw.prog, rw.db)
		if err != nil {
			t.Fatalf("%s: %v", rw.name, err)
		}
		e.EnableProfile()
		e.EnsureWindow(rw.window)
		members := checkMemberSteps(t, rw.name, e)
		if rw.members >= 0 && members != rw.members {
			t.Fatalf("%s: %d member steps, want %d\nplans:\n%s", rw.name, members, rw.members, e.PlanText())
		}
		checkNoRowIndex(t, rw.name+", cold", e.Store())
		if rw.cold != nil {
			if got := memberCountsOf(e); !reflect.DeepEqual(got, *rw.cold) {
				t.Errorf("%s, cold: counts %+v\nwant %+v", rw.name, got, *rw.cold)
			}
		}
		c := e.Clone()
		var seed []ast.Fact
		for _, f := range rw.delta {
			added, err := c.InsertBase(f)
			if err != nil {
				t.Fatalf("%s: InsertBase(%s): %v", rw.name, f, err)
			}
			if added {
				seed = append(seed, f)
			}
		}
		c.PropagateDelta(seed)
		checkMemberSteps(t, rw.name+", after the delta", c)
		checkNoRowIndex(t, rw.name+", after the delta", c.Store())
		checkNoRowIndex(t, rw.name+", the parent after the delta", e.Store())
		for _, f := range rw.holds {
			if !c.Holds(f) {
				t.Errorf("%s: %s does not hold after the delta", rw.name, f)
			}
		}
		if rw.after != nil {
			if got := memberCountsOf(c); !reflect.DeepEqual(got, *rw.after) {
				t.Errorf("%s, after the delta: counts %+v\nwant %+v", rw.name, got, *rw.after)
			}
		}
		if rw.members < 0 {
			corpusMembers += members
			for _, ix := range c.Stats().Index {
				corpusProbes += int(ix.Probes)
			}
		}
	}
	t.Logf("randgen corpus: %d member steps, %d probes", corpusMembers, corpusProbes)
	if corpusMembers == 0 || corpusProbes == 0 {
		t.Errorf("the randgen corpus planned %d member steps and made %d probes; want some of each", corpusMembers, corpusProbes)
	}
}
