package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"tdd"
	"tdd/internal/wal"
)

// runRepl implements `tdd repl`: one line loop on stdin over a live
// database, typed at a prompt or piped in as a stream. The rule set (and
// any initial facts) load once from the unit file; every fact line after
// that is folded into the certified model incrementally — semi-naive
// delta propagation plus re-certification — instead of a from-scratch
// recomputation.
//
//	tdd repl [-data DIR] file.tdd
//
// Lines (the query parser rejects a trailing '.', a fact source needs
// one, so the two never collide):
//
//	plane(10, hunter)          a query, open or closed ("? q" also works)
//	?? paged(1000000, E)       watch: re-answer after every asserted batch
//	edge(n3, n4).              assert facts (any fact-source syntax,
//	                           including intervals like up(3..7).)
//	:period                    print the certified minimal period
//	:spec                      print the relational specification
//	:state 42                  print the model state M[42]
//	:classify                  classify the rule set
//	:lint                      run the Tier-A static analyzer
//	:rules                     echo the loaded rules
//	:stats                     work certificate and per-batch delta counts
//	:help :quit
//
// Blank lines and % comments pass through unanswered, so a stream file
// can document itself. The "tdd> " prompt is written only when stdin is
// a terminal.
//
// With -data DIR the session is durable: every asserted batch is
// appended to a write-ahead log under DIR before it is acknowledged,
// and restarting with the same unit file and directory replays the
// logged batches — the session resumes exactly where the previous run
// (or crash) left it.
func runRepl(args []string) error {
	fs := flag.NewFlagSet("tdd repl", flag.ExitOnError)
	dataDir := fs.String("data", "", "durable session: WAL directory (restart resumes the stream)")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: tdd repl [-data DIR] file.tdd")
	}
	// The session trace accumulates one ingest/delta span per batch (up
	// to the trace's span cap) and names the session in :stats output.
	r := &repl{tr: tdd.NewTrace(), out: os.Stdout}
	var err error
	r.db, r.src, err = open(fs.Arg(0), openOptions{trace: r.tr})
	if err != nil {
		return err
	}
	if *dataDir != "" {
		r.journal, err = openJournal(r.db, *dataDir, r.src, r.out)
		if err != nil {
			return err
		}
	}
	fi, serr := os.Stdin.Stat()
	r.prompt = serr == nil && fi.Mode()&os.ModeCharDevice != 0
	err = r.run(os.Stdin)
	if r.journal != nil {
		if cerr := r.journal.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// repl is one interactive session.
type repl struct {
	db      *tdd.DB
	src     string     // the unit as written, for :lint positions and suppressions
	tr      *tdd.Trace // the session trace :stats names
	journal *journal   // nil without -data
	out     io.Writer
	prompt  bool // stdin is a terminal
	watches []string
	batches []tdd.AssertResult
}

func (r *repl) run(in io.Reader) error {
	scanner := bufio.NewScanner(in)
	for r.showPrompt(); scanner.Scan(); r.showPrompt() {
		quit, err := r.line(scanner.Text())
		if quit || err != nil {
			return err
		}
	}
	return scanner.Err()
}

func (r *repl) showPrompt() {
	if r.prompt {
		fmt.Fprint(r.out, "tdd> ")
	}
}

// report prints a failed step on the session writer: a bad line is an
// answer, not the end of the session.
func (r *repl) report(err error) {
	if err != nil {
		fmt.Fprintln(r.out, "error:", err)
	}
}

func (r *repl) answer(q string) {
	_, err := printAnswers(r.out, r.db, q, nil)
	r.report(err)
}

// line handles one input line; only a failed journal append is fatal.
func (r *repl) line(line string) (quit bool, err error) {
	if i := strings.IndexByte(line, '%'); i >= 0 {
		line = line[:i]
	}
	line = strings.TrimSpace(line)
	switch {
	case line == "":
	case line == ":quit" || line == ":q":
		return true, nil
	case strings.HasPrefix(line, ":"):
		r.command(line)
	case strings.HasPrefix(line, "??"):
		q := strings.TrimSpace(line[2:])
		if q == "" {
			fmt.Fprintln(r.out, "usage: ?? query")
			break
		}
		r.watches = append(r.watches, q)
		r.answer(q)
	case strings.HasPrefix(line, "?"):
		r.answer(strings.TrimSpace(line[1:]))
	case strings.HasSuffix(line, "."):
		return false, r.assert(line)
	default:
		r.answer(line)
	}
	return false, nil
}

func (r *repl) command(line string) {
	name, arg, _ := strings.Cut(line, " ")
	switch name {
	case ":help":
		fmt.Fprintln(r.out, "queries:  plane(10, hunter) | exists T (p(T) & q(T)) | p(T, X) | ?? q (watch)")
		fmt.Fprintln(r.out, "facts:    edge(n3, n4). | up(3..7).")
		fmt.Fprintln(r.out, "commands: :period :spec :state N :classify :lint :rules :stats :help :quit")
	case ":period":
		r.report(printDBPeriod(r.out, r.db))
	case ":spec":
		r.report(printSpec(r.out, r.db))
	case ":state":
		t, err := strconv.Atoi(strings.TrimSpace(arg))
		if err != nil || t < 0 {
			fmt.Fprintln(r.out, "usage: :state N")
			break
		}
		r.report(printState(r.out, r.db, t))
	case ":classify":
		fmt.Fprint(r.out, r.db.Classify(false).String())
	case ":lint":
		printLint(r.out, "", r.db.Lint(r.src))
	case ":rules":
		fmt.Fprint(r.out, r.db.Rules())
	case ":stats":
		w, err := r.db.Work()
		if err != nil {
			r.report(err)
			break
		}
		fmt.Fprintf(r.out, "trace=%s %v batches=%d\n", r.tr.ID(), w, len(r.batches))
		for i, b := range r.batches {
			fmt.Fprintf(r.out, "  batch %d: new=%d dup=%d delta=%d recertified=%t\n",
				i+1, b.NewFacts, b.Duplicates, b.Derived, b.Recertified)
		}
	default:
		fmt.Fprintf(r.out, "unknown command %s (try :help)\n", line)
	}
}

// assert folds one fact batch into the model, then re-answers the watches.
func (r *repl) assert(batch string) error {
	res, err := r.db.Assert(batch)
	if err != nil {
		r.report(err)
		return nil
	}
	if r.journal != nil {
		// Log before acknowledging: a batch the user saw a "+n new" line
		// for must survive a crash. Append under fsync=always syncs before
		// returning.
		if err := r.journal.append(batch); err != nil {
			return fmt.Errorf("logging batch: %w", err)
		}
	}
	r.batches = append(r.batches, res)
	p, err := r.db.Period()
	if err != nil {
		r.report(err)
		return nil
	}
	fmt.Fprintf(r.out, "+%d new, %d dup, %d derived, period %v\n",
		res.NewFacts, res.Duplicates, res.Derived, p)
	for _, q := range r.watches {
		r.answer(q)
	}
	return nil
}

// journal is a durable session: the program's WAL under -data DIR plus
// the replication cursor (seq, rev) of the batches logged so far.
type journal struct {
	store *wal.Store
	log   *wal.Log
	seq   uint64
	rev   string
}

// openJournal opens (or resumes) the durable session for this unit
// source: prior logged batches are verified and replayed into db, then
// the log is reopened for appending.
func openJournal(db *tdd.DB, dir, unit string, out io.Writer) (*journal, error) {
	// fsync=always: a session acknowledges batches one at a time on a
	// human/pipe cadence, so full durability costs nothing noticeable.
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
	j := &journal{store: store, seq: 0, rev: id}
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
		j.seq, j.rev = rec.Seq, rec.Rev
		fmt.Fprintf(out, "resumed %d logged batch(es), rev %s\n", rec.Seq, rec.Rev)
	}
	lg, err := store.Create(wal.Base{ID: id, Unit: unit})
	if err != nil {
		store.Close() //nolint:errcheck
		return nil, err
	}
	j.log = lg
	return j, nil
}

// append logs one acknowledged batch.
func (j *journal) append(batch string) error {
	next := wal.NextRev(j.rev, batch)
	rec := wal.Record{Seq: j.seq + 1, Prev: j.rev, Rev: next, Batch: batch}
	if err := j.log.Append(rec); err != nil {
		return err
	}
	j.seq, j.rev = rec.Seq, rec.Rev
	return nil
}
