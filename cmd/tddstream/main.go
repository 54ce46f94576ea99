// Command tddstream tails a fact stream on stdin and answers queries
// continuously against the live model. The rule set (and any initial
// facts) load once from a unit file; every subsequent fact line is
// folded into the certified model incrementally — semi-naive delta
// propagation plus re-certification — instead of a from-scratch
// recomputation.
//
// Usage:
//
//	tddstream [-data DIR] file.tdd < stream
//
// Stream lines:
//
//	edge(n3, n4).              assert facts (any fact-source syntax,
//	                           including intervals like up(3..7).)
//	? plane(10, hunter)        evaluate a query once, now
//	?? paged(1000000, E)       watch: re-evaluate after every batch
//	:period :stats :quit       commands
//
// Blank lines and % comments pass through unanswered, so a stream file
// can document itself.
//
// With -data DIR the session is durable: every asserted batch is
// appended to a write-ahead log under DIR before it is acknowledged,
// and restarting tddstream with the same unit file and directory
// replays the logged batches — the session resumes exactly where the
// previous run (or crash) left it.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tdd"
	"tdd/internal/wal"
)

func main() {
	dataDir := flag.String("data", "", "durable session: WAL directory (restart resumes the stream)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tddstream [-data DIR] file.tdd < stream")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "tddstream:", err)
		os.Exit(1)
	}
	// The session trace accumulates one ingest/delta span per batch (up
	// to the trace's span cap) and names the session in :stats output.
	tr := tdd.NewTrace()
	db, err := tdd.OpenUnit(string(src), tdd.WithTrace(tr))
	if err != nil {
		fmt.Fprintln(os.Stderr, "tddstream:", err)
		os.Exit(1)
	}
	var sess *session
	if *dataDir != "" {
		sess, err = openSession(db, *dataDir, string(src), os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tddstream:", err)
			os.Exit(1)
		}
	}
	tailErr := tail(db, tr, sess, os.Stdin, os.Stdout)
	if sess != nil {
		if err := sess.store.Close(); err != nil && tailErr == nil {
			tailErr = err
		}
	}
	if tailErr != nil {
		fmt.Fprintln(os.Stderr, "tddstream:", tailErr)
		os.Exit(1)
	}
}

// session is a durable stream: the program's WAL under -data DIR plus
// the replication cursor (seq, rev) of the batches logged so far.
type session struct {
	store *wal.Store
	log   *wal.Log
	seq   uint64
	rev   string
}

// openSession opens (or resumes) the durable session for this unit
// source: prior logged batches are verified and replayed into db, then
// the log is reopened for appending.
func openSession(db *tdd.DB, dir, unit string, out io.Writer) (*session, error) {
	// fsync=always: a stream session acknowledges batches one at a time
	// on a human/pipe cadence, so full durability costs nothing
	// noticeable.
	store, err := wal.Open(dir, wal.Options{Policy: wal.FsyncAlways})
	if err != nil {
		return nil, err
	}
	id := wal.HashSource(unit, "", "")
	recovered, err := store.Recover()
	if err != nil {
		store.Close() //nolint:errcheck // the recovery error wins
		return nil, err
	}
	sess := &session{store: store, seq: 0, rev: id}
	for _, rec := range recovered {
		if rec.Base.ID != id {
			continue // another unit file sharing the directory
		}
		for _, wr := range rec.Records {
			if _, err := db.Assert(wr.Batch); err != nil {
				store.Close() //nolint:errcheck
				return nil, fmt.Errorf("replaying logged batch %d: %w", wr.Seq, err)
			}
		}
		sess.seq, sess.rev = rec.Seq, rec.Rev
		fmt.Fprintf(out, "resumed %d logged batch(es), rev %s\n", rec.Seq, rec.Rev)
	}
	lg, err := store.Create(wal.Base{ID: id, Unit: unit})
	if err != nil {
		store.Close() //nolint:errcheck
		return nil, err
	}
	sess.log = lg
	return sess, nil
}

// append logs one acknowledged batch.
func (s *session) append(batch string) error {
	next := wal.NextRev(s.rev, batch)
	rec := wal.Record{Seq: s.seq + 1, Prev: s.rev, Rev: next, Batch: batch}
	if err := s.log.Append(rec); err != nil {
		return err
	}
	s.seq, s.rev = rec.Seq, rec.Rev
	return nil
}

func tail(db *tdd.DB, tr *tdd.Trace, sess *session, in io.Reader, out io.Writer) error {
	scanner := bufio.NewScanner(in)
	var watches []string
	var batches []tdd.AssertResult
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "%"):
		case line == ":quit" || line == ":q":
			return nil
		case line == ":period":
			p, err := db.Period()
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			fmt.Fprintf(out, "period %v\n", p)
		case line == ":stats":
			w, err := db.Work()
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			fmt.Fprintf(out, "trace=%s %v batches=%d\n", tr.ID(), w, len(batches))
			for i, b := range batches {
				fmt.Fprintf(out, "  batch %d: new=%d dup=%d delta=%d recertified=%t\n",
					i+1, b.NewFacts, b.Duplicates, b.Derived, b.Recertified)
			}
		case strings.HasPrefix(line, "??"):
			q := strings.TrimSpace(strings.TrimPrefix(line, "??"))
			if q == "" {
				fmt.Fprintln(out, "usage: ?? query")
				break
			}
			watches = append(watches, q)
			answer(db, out, q)
		case strings.HasPrefix(line, "?"):
			answer(db, out, strings.TrimSpace(strings.TrimPrefix(line, "?")))
		case strings.HasPrefix(line, ":"):
			fmt.Fprintf(out, "unknown command %s\n", line)
		default:
			res, err := db.Assert(line)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			if sess != nil {
				// Log before acknowledging: a batch the user saw a "+n new"
				// line for must survive a crash. Append under fsync=always
				// syncs before returning.
				if err := sess.append(line); err != nil {
					return fmt.Errorf("logging batch: %w", err)
				}
			}
			batches = append(batches, res)
			p, err := db.Period()
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			fmt.Fprintf(out, "+%d new, %d dup, %d derived, period %v\n",
				res.NewFacts, res.Duplicates, res.Derived, p)
			for _, q := range watches {
				answer(db, out, q)
			}
		}
	}
	return scanner.Err()
}

func answer(db *tdd.DB, out io.Writer, q string) {
	ans, err := db.Answers(q)
	switch {
	case err != nil:
		fmt.Fprintln(out, "error:", err)
	case len(ans) == 0:
		fmt.Fprintf(out, "?- %s\nno\n", q)
	default:
		fmt.Fprintf(out, "?- %s\n%s", q, tdd.FormatAnswers(ans))
	}
}
