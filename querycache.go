package tdd

import (
	"strings"
	"sync"

	"tdd/internal/query"
)

// The compiled-query cache. In the paper's data-complexity setting the
// query text is fixed while the database varies, and parsing a text reads
// nothing of the database but its predicate signatures: a query.Compiled
// is a function of (signature key, text) alone and is immutable. So one
// process-wide table serves every DB, snapshot and SpecDB whose
// signatures are equal. Only successful compiles are kept; a failing text
// fails again, the same way, on every call.
//
// The table is bounded by entries and by key bytes, and is emptied when
// either bound would be passed: a workload whose texts fit asks from a
// full table, one whose texts do not pays what an uncached parse pays.

// queryKey is a cache key: a signature key (ast.SignatureKey) and a text.
type queryKey struct{ sig, text string }

const (
	queryCacheEntries = 4096
	queryCacheBytes   = 1 << 20
)

type queryCache struct {
	mu sync.Mutex
	m  map[queryKey]query.Compiled
	// sigs interns the signature keys of m's entries, so each distinct key
	// is held, and counted in bytes, once however many texts share it.
	sigs  map[string]string
	bytes int
}

// queries is the process-wide cache compileQuery reads.
var queries queryCache

func (c *queryCache) get(k queryKey) (query.Compiled, bool) {
	c.mu.Lock()
	v, ok := c.m[k]
	c.mu.Unlock()
	return v, ok
}

// put records a successful compile, emptying the table first if the entry
// would pass a bound. An entry whose key alone passes the byte bound is not
// kept.
func (c *queryCache) put(k queryKey, v query.Compiled) {
	if len(k.sig)+len(k.text) > queryCacheBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[k]; ok {
		return
	}
	sig, interned := c.sigs[k.sig]
	n := len(k.text)
	if !interned {
		n += len(k.sig)
	}
	if c.m == nil || len(c.m) >= queryCacheEntries || c.bytes+n > queryCacheBytes {
		c.m = make(map[queryKey]query.Compiled)
		c.sigs = make(map[string]string)
		c.bytes = 0
		interned, n = false, len(k.sig)+len(k.text)
	}
	if interned {
		k.sig = sig
	} else {
		c.sigs[k.sig] = k.sig
	}
	// A text may be a slice of a larger buffer (a request body, an input
	// line); the entry keeps a copy, not the buffer.
	k.text = strings.Clone(k.text)
	c.m[k] = v
	c.bytes += n
}
