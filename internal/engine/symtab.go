package engine

// The symbol table: constants and predicate signatures interned to dense
// integer ids, plus the hashes the state fingerprints are built from.
//
// Determinism: every hash below is a fixed function of the hashed text —
// no per-process seed (internal/gocheck's TestFixpointImports bans
// hash/maphash in this package) — so fingerprints agree between runs,
// between a leader and a follower, and between two stores that interned
// the same names in different orders.

import "maps"

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
// (see env).
//
// Store clones share the table the way they share shards: a frozen base
// plus a short private part. The constants, their hashes and the
// predicates are sharedLogs, so a clone copies slice headers and an
// append copies nothing unless a sibling lineage took the slot first.
// The name-to-id maps cover a prefix of the logs (ids covers
// names[:idsN], predIDs covers preds[:predsN]); the names past it are
// found by scanning the tail. The maps carry the epoch of the store that
// may write them (see Store). A writer of that epoch puts a new name
// straight into them; any other — both sides of a clone, which re-epochs
// both — leaves new names in the tail, and a tail reaching tailCap is
// folded into copies of the maps that carry the writer's epoch,
// O(symbols) once per tailCap new names. Only base-fact ingestion interns
// on a clone — derived facts are built from constants already stored and
// rule constants are interned by New. Readers never write: lookups of
// unknown names fail without interning.
type symtab struct {
	names   sharedLog[string] // symbol id -> constant; names[0] is the unbound sentinel
	hashes  sharedLog[uint64] // symbol id -> strHash(names[id])
	ids     map[string]uint32
	preds   sharedLog[predSym] // predicate id -> signature
	predIDs map[predKey]uint32
	// idsN and predsN share a word, as ids do: Store stays in its size
	// class.
	idsN, predsN uint32
	epoch        uint64 // the epoch of the maps' writer
}

// predSym is one predicate signature and the hash of its name and arity.
type predSym struct {
	key  predKey
	hash uint64
}

func newSymtab(epoch uint64) symtab {
	return symtab{
		names:   newSharedLog([]string{""}),
		hashes:  newSharedLog([]uint64{0}),
		ids:     make(map[string]uint32),
		idsN:    1,
		preds:   newSharedLog[predSym](nil),
		predIDs: make(map[predKey]uint32),
		epoch:   epoch,
	}
}

func (st *symtab) name(id uint32) string { return st.names.s[id] }

func (st *symtab) pred(id uint32) predKey { return st.preds.s[id].key }

// nsyms returns the number of symbol ids handed out, the sentinel included.
func (st *symtab) nsyms() int { return len(st.names.s) }

// symbolID resolves a constant without interning.
func (st *symtab) symbolID(name string) (uint32, bool) {
	if id, ok := st.ids[name]; ok {
		return id, true
	}
	for i := int(st.idsN); i < len(st.names.s); i++ {
		if st.names.s[i] == name {
			return uint32(i), true
		}
	}
	return 0, false
}

// predID resolves a signature without interning.
func (st *symtab) predID(k predKey) (uint32, bool) {
	if id, ok := st.predIDs[k]; ok {
		return id, true
	}
	for i := int(st.predsN); i < len(st.preds.s); i++ {
		if st.preds.s[i].key == k {
			return uint32(i), true
		}
	}
	return 0, false
}

// addSymbol appends a constant the table does not hold yet, for the
// writer of the given epoch.
func (st *symtab) addSymbol(name string, epoch uint64) uint32 {
	id := uint32(len(st.names.s))
	st.names.append(name)
	st.hashes.append(strHash(name))
	st.indexTails(epoch)
	return id
}

// addPred appends a signature the table does not hold yet, for the
// writer of the given epoch.
func (st *symtab) addPred(k predKey, epoch uint64) uint32 {
	id := uint32(len(st.preds.s))
	st.preds.append(predSym{key: k, hash: mix64(strHash(k.name) + uint64(k.arity))})
	st.indexTails(epoch)
	return id
}

// indexTails brings the maps up to date with the logs when the writer of
// the given epoch owns them, and otherwise folds the tails into copies
// it owns once one reaches tailCap.
func (st *symtab) indexTails(epoch uint64) {
	if st.epoch != epoch {
		if len(st.names.s)-int(st.idsN) < tailCap && len(st.preds.s)-int(st.predsN) < tailCap {
			return
		}
		st.ids, st.predIDs, st.epoch = maps.Clone(st.ids), maps.Clone(st.predIDs), epoch
	}
	for ; int(st.idsN) < len(st.names.s); st.idsN++ {
		st.ids[st.names.s[st.idsN]] = st.idsN
	}
	for ; int(st.predsN) < len(st.preds.s); st.predsN++ {
		st.predIDs[st.preds.s[st.predsN].key] = st.predsN
	}
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
	lo := st.preds.s[pred].hash
	hi := mix64b(lo)
	for _, id := range row {
		x := st.hashes.s[id]
		lo = mix64(lo ^ x)
		hi = mix64b(hi + x)
	}
	return Fingerprint{Hi: hi, Lo: lo}
}
