// Package wal is the durability subsystem behind tddserve -data: a
// per-program append-only write-ahead log of ingested fact batches and a
// recovery path that reconstructs the server's program registry after a
// restart.
//
// The persistence unit is the paper's own artifact. A program's infinite
// temporal model is finitely represented by its relational specification,
// and that specification is a deterministic function of the base sources
// plus the ordered ingestion history — so durability never stores the
// model, only the tiny inputs that regenerate it: the registered sources
// (base.json) and one WAL record per ingested batch (wal.log). Recovery is
// replay-plus-recertify: the already-tested eviction-safe batch replay
// rebuilds the engine, and the rev hash chain carried by every record
// proves on disk that the recovered history is exactly the one the
// clients were acknowledged.
//
// On-disk layout under the data directory:
//
//	programs/<id>/base.json  registered sources (written once)
//	programs/<id>/wal.log    every ingested batch, in order
//
// An older layout folded batches out of wal.log into a snapshot file
// beside it; recovery refuses a directory that still holds one rather
// than boot without those batches (recoverProgram).
//
// This package deliberately uses wall-clock time (fsync interval timers
// and latencies); internal/gocheck's TestFixpointImports lets this package
// alone import "time" — determinism of the recovered model is enforced by the
// rev hash chain, not by time-independence.
package wal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
)

// Record is one ingested fact batch in the log. Seq numbers batches from
// 1 in ingestion order; Prev and Rev are the program's content revision
// before and after the batch, forming a hash chain rooted at the program
// id, so a log's integrity is verifiable without the engine.
type Record struct {
	Seq   uint64 `json:"seq"`
	Prev  string `json:"prev"`
	Rev   string `json:"rev"`
	Batch string `json:"batch"`
}

// Base is the registered, never-changing part of a program: the content
// the id hashes.
type Base struct {
	ID    string `json:"id"`
	Unit  string `json:"unit,omitempty"`
	Rules string `json:"rules,omitempty"`
	Facts string `json:"facts,omitempty"`
}

// HashSource derives the registry handle: a content hash, so registering
// the same program twice — from any client, on any node — yields the
// same id. It is the root of every program's rev chain.
func HashSource(unit, rules, facts string) string {
	h := sha256.New()
	h.Write([]byte(unit))
	h.Write([]byte{0})
	h.Write([]byte(rules))
	h.Write([]byte{0})
	h.Write([]byte(facts))
	return shortHex(h)
}

// NextRev advances a content revision by one ingested batch: a hash
// chain committing to the base program and the entire ingestion history
// in order.
func NextRev(rev, batch string) string {
	h := sha256.New()
	h.Write([]byte(rev))
	h.Write([]byte{0})
	h.Write([]byte(batch))
	return shortHex(h)
}

// shortHex is the first 8 bytes of h's sum in hex. Encoding only those
// bytes, rather than slicing the full 64-character encoding, keeps the
// other 48 bytes from being retained by every stored id and rev.
func shortHex(h hash.Hash) string {
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// VerifyChain checks that records continue the chain rooted at rev (the
// id for a fresh program, the snapshot rev for a tail) with contiguous
// sequence numbers starting at seq+1, and returns the final (seq, rev).
func VerifyChain(seq uint64, rev string, records []Record) (uint64, string, error) {
	for _, rec := range records {
		if rec.Seq != seq+1 {
			return seq, rev, fmt.Errorf("wal: record seq %d does not continue %d", rec.Seq, seq)
		}
		if rec.Prev != rev {
			return seq, rev, fmt.Errorf("wal: record %d chains from rev %s, log is at %s", rec.Seq, rec.Prev, rev)
		}
		if got := NextRev(rec.Prev, rec.Batch); got != rec.Rev {
			return seq, rev, fmt.Errorf("wal: record %d claims rev %s but its batch hashes to %s", rec.Seq, rec.Rev, got)
		}
		seq, rev = rec.Seq, rec.Rev
	}
	return seq, rev, nil
}

// Record wire format, designed so a decoder over arbitrary bytes can
// always answer "valid record / torn tail / corrupt" with a position:
//
//	[4] big-endian payload length
//	[4] IEEE CRC32 of the payload
//	[n] payload: the Record as JSON
//
// maxRecordBytes bounds a single record; a length header above it is
// corruption (and caps what a decoder will ever allocate on adversarial
// input).
const maxRecordBytes = 16 << 20

const headerBytes = 8

// CorruptError is a positioned decode failure. Offset is the byte offset
// of the record the decoder choked on; Torn reports that the record was
// cut off by end-of-input — the signature of a crash mid-append, which
// recovery repairs by truncating, as opposed to mid-log corruption,
// which it refuses to skip.
type CorruptError struct {
	Offset int64
	Reason string
	Torn   bool
}

func (e *CorruptError) Error() string {
	kind := "corrupt record"
	if e.Torn {
		kind = "torn record"
	}
	return fmt.Sprintf("wal: %s at offset %d: %s", kind, e.Offset, e.Reason)
}

// EncodeRecord renders one record in the wire format — the exact bytes
// Append writes, so callers can compute on-disk extents (crash-point
// tests) or build logs offline.
func EncodeRecord(rec Record) ([]byte, error) { return encodeRecord(rec) }

// encodeRecord renders one record in the wire format.
func encodeRecord(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	if len(payload) > maxRecordBytes {
		return nil, fmt.Errorf("wal: record of %d bytes exceeds the %d byte cap", len(payload), maxRecordBytes)
	}
	buf := make([]byte, headerBytes+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[headerBytes:], payload)
	return buf, nil
}

// DecodeRecords decodes a log byte stream. It returns every complete,
// checksum-valid record and the offset just past the last good one. A
// non-nil error is always a *CorruptError positioned at the first bad
// record; the good prefix is still returned alongside it, so recovery
// can truncate a torn tail to good and keep going.
func DecodeRecords(r io.Reader) (records []Record, good int64, err error) {
	br := &countingReader{r: r}
	for {
		start := br.n
		var hdr [headerBytes]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return records, start, nil // clean end of log
			}
			return records, start, &CorruptError{Offset: start, Torn: true,
				Reason: "length header cut short"}
		}
		n := binary.BigEndian.Uint32(hdr[0:4])
		sum := binary.BigEndian.Uint32(hdr[4:8])
		if n > maxRecordBytes {
			return records, start, &CorruptError{Offset: start,
				Reason: fmt.Sprintf("implausible payload length %d (cap %d)", n, maxRecordBytes)}
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return records, start, &CorruptError{Offset: start, Torn: true,
				Reason: fmt.Sprintf("payload cut short (%d of %d bytes)", br.n-start-headerBytes, n)}
		}
		if got := crc32.ChecksumIEEE(payload); got != sum {
			return records, start, &CorruptError{Offset: start,
				Reason: fmt.Sprintf("checksum mismatch: header %08x, payload %08x", sum, got)}
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return records, start, &CorruptError{Offset: start,
				Reason: "checksummed payload is not a record: " + err.Error()}
		}
		records = append(records, rec)
	}
}

// countingReader tracks how many bytes have been consumed, so decode
// errors carry exact offsets.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// ErrClosed is returned by appends and syncs after the store shut down;
// an ingest that sees it was never written and must be rejected upstream.
var ErrClosed = errors.New("wal: store closed")
