package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
)

// structSeed fixes the structure of every generated instance (which edges
// a graph has, on which days flights leave). It is part of the workload
// definitions, not an argument. The -seed argument renames every constant
// and reorders facts and requests, but never resizes an instance and never
// changes how constants sort, so the work in one op is the same for every
// seed and the spread between seeds measures the machine rather than an
// instance lottery (two random graphs of one size differ threefold in
// derived facts; see README.md).
const structSeed = 7

// labels names the constants of one generated family (r0, r1, ... or n0,
// n1, ...) for a seed: every constant gets the seed's tag in front, which
// changes the bytes and the hashes but keeps the sort order, and with it
// the order in which quantifiers enumerate the constant domain.
type labels struct {
	tag    string
	prefix string
	re     *regexp.Regexp
}

// newLabels derives the tag from the seed. Every tag has the same length,
// so the bytes an op allocates for constants do not depend on how many
// digits the seed has.
func newLabels(prefix string, seed int64) labels {
	tag := fmt.Sprintf("s%08x", uint32(seedRNG(seed, "tag").Int63()))
	return labels{tag: tag, prefix: prefix, re: regexp.MustCompile(`\b` + prefix + `\d+\b`)}
}

// name returns the seed's name for the family's i-th constant.
func (l labels) name(i int) string { return l.tag + l.prefix + strconv.Itoa(i) }

// constant returns the seed's name for a constant outside the family.
func (l labels) constant(name string) string { return l.tag + name }

// apply renames every constant of the family in src.
func (l labels) apply(src string) string {
	return l.re.ReplaceAllStringFunc(src, func(tok string) string { return l.tag + tok })
}

// shuffleLines reorders the lines of a fact source; fact order carries no
// meaning, so this changes the bytes and the insertion order only.
func shuffleLines(src string, rng *rand.Rand) string {
	lines := strings.Split(strings.TrimRight(src, "\n"), "\n")
	rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	return strings.Join(lines, "\n") + "\n"
}

// seedRNG derives an independent generator for one purpose from the run
// seed, so adding a consumer never shifts the stream another one sees.
func seedRNG(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return rand.New(rand.NewSource(seed*0x9E3779B9 ^ int64(h.Sum64())))
}

// mismatch formats a failed answer check.
func mismatch(what string, got, want any) error {
	return fmt.Errorf("%s: got %v, want %v", what, got, want)
}
