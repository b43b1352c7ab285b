package serve

import (
	"fmt"
	"sync"

	"naiad/internal/codec"
	"naiad/internal/lib"
	ts "naiad/internal/timestamp"
)

// TableSink bridges the exactly-once sink to the serving read path: it is a
// lib.SinkStore whose committed batches maintain a Table, so a flow's View is
// fed through the same durable, deduplicated channel as its external output
// and every read rides the sink's frontier stamps.
//
// The soundness argument leans on two sink guarantees. Batches are
// byte-identical across replays, so per-epoch dedup is enough for
// exactly-once application. And every commit chain — a live incarnation's
// or one stranded by a crash — reaches the store in epoch order with at
// most one commit in flight, so the moment epoch e's batch is applied, every
// earlier non-empty epoch already is: the table really is complete through
// e, the batch's guarantee-derived Frontier (ts.Root(e+1)) can be published
// as the view's stamp without consulting the live tracker, and "already
// applied" is simply "not above the highest epoch applied" — one integer,
// however many epochs the sink lives through.
type TableSink struct {
	tbl *Table
	// decode turns one canonical record encoding into a table entry; a nil
	// value deletes the key (last-writer-wins within the epoch's batch).
	decode func(rec []byte) (key string, val []byte, err error)

	mu       sync.Mutex
	applied  int64 // highest epoch applied; -1 before any
	frontier ts.Timestamp
}

// NewTableSink returns a TableSink over a fresh empty Table. decode maps one
// record's codec bytes to a key→value entry; returning a nil value deletes
// the key.
func NewTableSink(decode func(rec []byte) (key string, val []byte, err error)) *TableSink {
	return &TableSink{
		tbl:      NewTable(),
		decode:   decode,
		applied:  -1,
		frontier: ts.Root(0),
	}
}

// Commit implements lib.SinkStore: it decodes the batch's canonical records
// into entries, applies them to the table under the batch's epoch, and
// advances the view frontier to the batch's stamp. Replayed epochs are
// acknowledged without reapplying — the sink guarantees their bytes are
// identical to the first commit.
func (s *TableSink) Commit(b lib.SinkBatch) (err error) {
	defer func() {
		// The committer goroutine must not die on a malformed batch; an
		// error stalls the sink's frontier visibly instead.
		if r := recover(); r != nil {
			err = fmt.Errorf("tablesink: malformed batch for epoch %d: %v", b.Epoch, r)
		}
	}()
	entries := make(map[string][]byte)
	dec := codec.NewDecoder(b.Data)
	for dec.Remaining() > 0 {
		rec := dec.Bytes()
		k, v, derr := s.decode(rec)
		if derr != nil {
			return fmt.Errorf("tablesink: decode epoch %d: %w", b.Epoch, derr)
		}
		entries[k] = v
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if b.Epoch <= s.applied {
		return nil
	}
	s.applied = b.Epoch
	s.tbl.Update(b.Epoch, entries)
	if s.frontier.Less(b.Frontier) {
		s.frontier = b.Frontier
	}
	return nil
}

// Lookup implements View, delegating to the underlying table: the returned
// epoch is the highest epoch durably committed by the sink, and because
// commits are ordered it is also the epoch the table is complete through.
func (s *TableSink) Lookup(key string) (value []byte, epoch int64, ok bool) {
	return s.tbl.Lookup(key)
}

// Frontier returns the sink's guarantee-derived stamp: no record with a
// timestamp below it will ever reach the view. It starts at ts.Root(0)
// (nothing guaranteed) and only advances.
func (s *TableSink) Frontier() ts.Timestamp {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frontier
}

// Table exposes the underlying table, e.g. for direct inspection in tests.
func (s *TableSink) Table() *Table {
	return s.tbl
}

// FrontierView is the optional View extension for frontier-stamped reads:
// views maintained through the exactly-once sink (TableSink) report the
// sink's durable frontier stamp, which handleRead attaches to responses so
// clients can reason about read freshness in timestamp terms rather than
// bare epochs.
type FrontierView interface {
	View
	Frontier() ts.Timestamp
}
