package engine

// The symbol table: constants and predicate signatures interned to dense
// integer ids, plus the hashes the state fingerprints are built from.
//
// Determinism: every hash below is a fixed function of the hashed text —
// no per-process seed (internal/gocheck's TestFixpointImports bans
// hash/maphash in this package) — so fingerprints agree between runs,
// between a leader and a follower, and between two stores that interned
// the same names in different orders.

// predKey is a predicate signature. Interning by (name, arity, sort)
// gives every relation a fixed row width; a validated program has one
// signature per name, and a raw store that mixes them treats p/1 and p/2
// as the distinct relations they are.
type predKey struct {
	name     string
	arity    int
	temporal bool
}

// symtab is an append-only table of constants and predicate signatures.
// Ids are dense and never reused; symbol id 0 is reserved for "unbound"
// (see env). The table follows the shard copy-on-write discipline: store
// clones share it (Store.Clone sets shared) until one side needs a name
// it does not hold, and that side forks a private copy first — which only
// base-fact ingestion can cause, since derived facts are built from
// constants already stored and rule constants are interned by New.
// Readers of a shared table never write to it: lookups of unknown names
// fail without interning.
type symtab struct {
	names  []string // symbol id -> constant; names[0] is the unbound sentinel
	hashes []uint64 // symbol id -> strHash(names[id])
	ids    map[string]uint32

	preds   []predKey // predicate id -> signature
	phashes []uint64  // predicate id -> hash of name and arity
	predIDs map[predKey]uint32

	shared bool
}

func newSymtab() *symtab {
	return &symtab{
		names:   []string{""},
		hashes:  []uint64{0},
		ids:     make(map[string]uint32),
		predIDs: make(map[predKey]uint32),
	}
}

// fork returns a private copy of a shared table.
func (st *symtab) fork() *symtab {
	c := &symtab{
		names:   append(make([]string, 0, len(st.names)+8), st.names...),
		hashes:  append(make([]uint64, 0, len(st.hashes)+8), st.hashes...),
		ids:     make(map[string]uint32, len(st.ids)+8),
		preds:   append([]predKey(nil), st.preds...),
		phashes: append([]uint64(nil), st.phashes...),
		predIDs: make(map[predKey]uint32, len(st.predIDs)),
	}
	for k, v := range st.ids {
		c.ids[k] = v
	}
	for k, v := range st.predIDs {
		c.predIDs[k] = v
	}
	return c
}

// addSymbol appends a constant the table does not hold yet.
func (st *symtab) addSymbol(name string) uint32 {
	id := uint32(len(st.names))
	st.names = append(st.names, name)
	st.hashes = append(st.hashes, strHash(name))
	st.ids[name] = id
	return id
}

// addPred appends a signature the table does not hold yet.
func (st *symtab) addPred(k predKey) uint32 {
	id := uint32(len(st.preds))
	st.preds = append(st.preds, k)
	st.phashes = append(st.phashes, mix64(strHash(k.name)+uint64(k.arity)))
	st.predIDs[k] = id
	return id
}

// strHash is FNV-1a over the bytes, finalized: a fixed-seed 64-bit hash
// of the text, computed once per symbol at intern time.
func strHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// mix64b is the murmur3 finalizer: a second mixer, so the two lanes of a
// fingerprint are not functions of one another.
func mix64b(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Fingerprint is a 128-bit commutative hash of a set of facts: the
// lane-wise sum (mod 2^64 each) of a mixed hash of every fact. Being a
// sum it is maintained in O(1) per insert and is independent of insertion
// order; being built from the hashes of the predicate and constant
// *texts* it is independent of interning order and comparable across
// stores. Equal sets have equal fingerprints. Unequal sets collide with
// probability about 2^-128 for facts that were not chosen against the
// hash; period certification therefore treats a fingerprint match as a
// candidate and confirms the winning certificate by exact comparison
// (Store.StateEqual), so no result depends on the absence of collisions.
type Fingerprint struct {
	Hi, Lo uint64
}

func (f *Fingerprint) add(g Fingerprint) {
	f.Hi += g.Hi
	f.Lo += g.Lo
}

// factFingerprint hashes one fact: the predicate hash chained through the
// text hashes of its arguments in order, in two independently mixed lanes.
func (st *symtab) factFingerprint(pred uint32, row []uint32) Fingerprint {
	lo := st.phashes[pred]
	hi := mix64b(lo)
	for _, id := range row {
		x := st.hashes[id]
		lo = mix64(lo ^ x)
		hi = mix64b(hi + x)
	}
	return Fingerprint{Hi: hi, Lo: lo}
}
