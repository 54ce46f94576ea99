package engine

// SameShards reports whether states t1 and t2 of s are stored once: for
// every temporal predicate, slot t1 holds the very shard of slot t2.
func (s *Store) SameShards(t1, t2 int) bool {
	for i := range s.rels {
		if s.rels[i].get(t1) != s.rels[i].get(t2) {
			return false
		}
	}
	return true
}
