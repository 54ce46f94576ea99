package engine

// The copy-on-write ownership rule (see Store): a writer changes in place
// only what carries its epoch, and Clone writes nothing the two stores
// share. scripts/ci.sh names these tests explicitly.

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"tdd/internal/ast"
)

// shardImage is a shard's value: every field a writer could change.
type shardImage struct {
	arity     int32
	n         uint32
	epoch     uint64
	rows, tab []uint32
	base      *relset
	fp        Fingerprint
	idx       *idxTable
}

// axisImage is a predicate's header: its time axis, by identity and
// contents, and the shards it points at.
type axisImage struct {
	byTime              []*relset
	data                **relset
	capacity            int
	far                 map[int]*relset
	farID               unsafe.Pointer
	epoch               uint64
	nt, prop, db, spare *relset
	facts, states       int
}

// classImage is the store's class axis, by identity and contents, its
// spare capacity included.
type classImage struct {
	axis       *classAxis
	class      []uint32
	classData  *uint32
	first      []uint32
	firstData  *uint32
	classEpoch uint64
}

// cowImage is everything an evaluator reaches that some writer may
// change in place: each shard (an overlay's base included) and counter
// record by value, each predicate's header, the class axis and the
// symbol maps.
type cowImage struct {
	shards  map[*relset]shardImage
	axes    []axisImage
	recs    map[*ruleRec]ruleRec
	classes classImage
	syms    [4]uint64
}

func imageOf(e *Evaluator) cowImage {
	s := e.store
	img := cowImage{shards: make(map[*relset]shardImage), recs: make(map[*ruleRec]ruleRec)}
	var shard func(rs *relset)
	shard = func(rs *relset) {
		if rs == nil {
			return
		}
		if _, ok := img.shards[rs]; ok {
			return
		}
		img.shards[rs] = shardImage{arity: rs.arity, n: rs.n, epoch: rs.epoch, rows: slices.Clone(rs.rows),
			tab: slices.Clone(rs.tab), base: rs.base, fp: rs.fp, idx: rs.idx.Load()}
		shard(rs.base)
	}
	for i := range s.rels {
		pr := &s.rels[i]
		img.axes = append(img.axes, axisImage{byTime: slices.Clone(pr.byTime), data: unsafe.SliceData(pr.byTime),
			capacity: cap(pr.byTime), far: maps.Clone(pr.far), farID: reflect.ValueOf(pr.far).UnsafePointer(),
			epoch: pr.epoch, nt: pr.nt, prop: pr.prop, db: pr.db, spare: pr.spare, facts: pr.facts, states: pr.states})
		pr.each(func(_ int, rs *relset) { shard(rs) })
		for _, rs := range []*relset{pr.nt, pr.prop, pr.db, pr.spare} {
			shard(rs)
		}
	}
	for _, rec := range e.ctr.rules {
		v := *rec
		v.lits, v.strata, v.cells = slices.Clone(rec.lits), slices.Clone(rec.strata), slices.Clone(rec.cells)
		img.recs[rec] = v
	}
	if a := s.classes; a != nil {
		img.classes = classImage{axis: a, class: slices.Clone(a.class[:cap(a.class)]), classData: unsafe.SliceData(a.class),
			first: slices.Clone(a.first[:cap(a.first)]), firstData: unsafe.SliceData(a.first), classEpoch: a.epoch}
	}
	img.syms = [4]uint64{s.syms.epoch, uint64(s.syms.idsN), uint64(s.syms.predsN), uint64(len(s.syms.ids) + len(s.syms.predIDs))}
	return img
}

// diff names what differs between two images of one evaluator.
func (a cowImage) diff(b cowImage) error {
	if len(a.shards) != len(b.shards) || len(a.recs) != len(b.recs) || len(a.axes) != len(b.axes) {
		return fmt.Errorf("%d shards, %d records, %d predicates became %d, %d, %d",
			len(a.shards), len(a.recs), len(a.axes), len(b.shards), len(b.recs), len(b.axes))
	}
	for rs, v := range a.shards {
		if w, ok := b.shards[rs]; !ok || !reflect.DeepEqual(v, w) {
			return fmt.Errorf("shard %p changed: %+v became %+v", rs, v, w)
		}
	}
	for i := range a.axes {
		if !reflect.DeepEqual(a.axes[i], b.axes[i]) {
			return fmt.Errorf("predicate %d's header changed: %+v became %+v", i, a.axes[i], b.axes[i])
		}
	}
	for rec, v := range a.recs {
		if w, ok := b.recs[rec]; !ok || !reflect.DeepEqual(v, w) {
			return fmt.Errorf("counter record %p changed: %+v became %+v", rec, v, w)
		}
	}
	if !reflect.DeepEqual(a.classes, b.classes) {
		return fmt.Errorf("class axis changed: %+v became %+v", a.classes, b.classes)
	}
	if a.syms != b.syms {
		return fmt.Errorf("symbol maps changed: %v became %v", a.syms, b.syms)
	}
	return nil
}

// TestCloneWritesNothingShared: an evaluator that reaches every kind of
// shard — overlays and their bases, a proposition, a database shard, a
// state shared between time points, shards and counter records it owns
// and ones it inherited — and a class axis it owns is cloned, and no
// shard, time axis header, counter record, class axis (its spare
// capacity included) or symbol map it reaches changes: Clone re-epochs
// the two store headers and writes nothing else. The clone is then
// extended, which classes its new states, written into and extended
// again, and the parent still reads as it did.
func TestCloneWritesNothingShared(t *testing.T) {
	const src = `p(T+2, X) :- p(T, X).
q(T+1, X) :- p(T, X), w(T, X).
tick(T+3) :- tick(T).
h(X) :- s(X).
p(0, a0). p(0, a1). p(0, a2). p(0, a3). p(0, a4). p(0, a5). p(0, a6). p(0, a7).
p(1, b0). p(1, b1). p(1, b2). p(1, b3). p(1, b4). p(1, b5). p(1, b6). p(1, b7).
w(0, a0). w(2, a1). w(5, b2).
tick(0).
s(a0). h(z).
`
	root := mustEval(t, src)
	root.EnsureWindow(24)
	e := root.Clone()
	batch := []ast.Fact{tfact("p", 3, "c"), tfact("w", 9, "c"), ntfact("s", "d")}
	for _, f := range batch {
		if _, err := e.InsertBase(f); err != nil {
			t.Fatal(err)
		}
	}
	e.PropagateDelta(batch)
	e.EnsureWindow(40)
	e.EnsureWindow(41) // the class axis grows past its length

	// The fixture must reach every kind of shard, or the test checks less
	// than it says.
	var overlays, props, dbs, frozen, owned int
	for i := range e.store.rels {
		pr := &e.store.rels[i]
		pr.each(func(_ int, rs *relset) {
			if rs.base != nil {
				overlays++
			}
			if rs.epoch == 0 && rs != pr.prop {
				frozen++
			}
			if rs.epoch == e.store.epoch {
				owned++
			}
		})
		if pr.prop != nil {
			props++
		}
		if pr.db != nil {
			dbs++
		}
	}
	ownedRecs := 0
	for _, rec := range e.ctr.rules {
		if rec.epoch == e.store.epoch {
			ownedRecs++
		}
	}
	if a := e.store.classes; a == nil || a.epoch != e.store.epoch || len(a.class) != 42 || cap(a.class) == len(a.class) {
		t.Fatalf("fixture's class axis %+v (store epoch %d): want a fresh owned axis of 42 with room to spare", a, e.store.epoch)
	}
	if overlays == 0 || props == 0 || dbs == 0 || frozen == 0 || owned == 0 || ownedRecs == 0 {
		t.Fatalf("fixture reaches %d overlays, %d propositions, %d database shards, %d frozen shards, %d owned shards, %d owned counter records: one kind is missing",
			overlays, props, dbs, frozen, owned, ownedRecs)
	}

	before, wantP := imageOf(e), e.store.Snapshot(11)
	parentEpoch := e.store.epoch
	c := e.Clone()
	if err := before.diff(imageOf(e)); err != nil {
		t.Fatalf("Clone wrote what the parent reaches: %v", err)
	}
	if e.store.epoch == parentEpoch || c.store.epoch == parentEpoch || c.store.epoch == e.store.epoch {
		t.Fatalf("epochs after Clone: parent %d, clone %d, parent before %d; want two fresh ones",
			e.store.epoch, c.store.epoch, parentEpoch)
	}
	c.EnsureWindow(44) // closes states into the class axis the two share
	more := []ast.Fact{tfact("p", 11, "x"), tfact("p", 0, "y"), tfact("tick", 11), ntfact("s", "x")}
	for _, f := range more {
		if _, err := c.InsertBase(f); err != nil {
			t.Fatal(err)
		}
	}
	c.PropagateDelta(more)
	c.EnsureWindow(48)
	// A join through the clone may build an index on a shard the two
	// share (idxTable's compare-and-swap); nothing else may change.
	after := imageOf(e)
	for _, img := range []cowImage{before, after} {
		for rs, v := range img.shards {
			v.idx = nil
			img.shards[rs] = v
		}
	}
	if err := before.diff(after); err != nil {
		t.Fatalf("a write through the clone changed the parent: %v", err)
	}
	if got := e.store.Snapshot(11); !reflect.DeepEqual(got, wantP) {
		t.Errorf("parent's state 11 = %v, want %v", got, wantP)
	}
	if err := checkStoreIndexes(c.store); err != nil {
		t.Error(err)
	}
}

// TestShardAndEvaluatorSizes pins the sizes the epoch fields fit in: a
// relset, of which a model has one per (predicate, time) point, stays in
// the 96-byte size class, and an Evaluator within 448 bytes, its size
// class, where a counter block epoch of its own would push it to 480. A
// Store, which every clone allocates, stays within 240 bytes with its
// class axis behind one pointer (the axis's slices and epoch in place
// would push it to 320).
func TestShardAndEvaluatorSizes(t *testing.T) {
	var rs relset
	if got := unsafe.Sizeof(rs); got != 96 {
		t.Errorf("relset is %d bytes, want 96", got)
	}
	var s Store
	if got := unsafe.Sizeof(s); got > 240 {
		t.Errorf("Store is %d bytes, want at most 240", got)
	}
	var e Evaluator
	if got := unsafe.Sizeof(e); got > 448 {
		t.Errorf("Evaluator is %d bytes, want at most 448", got)
	}
}
