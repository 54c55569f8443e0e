package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"time"

	"revft/internal/chaos"
	"revft/internal/telemetry"
)

// Journal record types. Every job-state transition appends exactly one
// record, so the journal's last record per job is its authoritative state.
const (
	recSubmitted = "submitted"
	recStarted   = "started"
	recDone      = "done"
	recFailed    = "failed"
	recCancelled = "cancelled"
	// recReused records a near-miss cache reuse decision, appended right
	// after the job's submitted record: the source entry, the remainder
	// grid still to compute, and the grafted points themselves. Replay
	// applies it so a restarted server reconstructs the identical shard
	// layout without consulting the cache.
	recReused = "reused"
)

// Record is one fsynced line in the job journal. Submitted records carry
// the full spec so a restarted server can rebuild every job from the
// journal alone; terminal records carry the error text when there is one.
type Record struct {
	Seq  int64  `json:"seq"`
	Type string `json:"type"`
	Job  string `json:"job"`
	// At is wall-clock provenance for operators; replay ignores it, so it
	// never influences resumed results.
	At    time.Time `json:"at"`
	Spec  *JobSpec  `json:"spec,omitempty"`
	Error string    `json:"error,omitempty"`
	// Reuse carries a near-miss cache reuse plan on recReused records.
	Reuse *reusePlan `json:"reuse,omitempty"`
}

// CorruptJournalError reports a journal whose interior is unparseable —
// damage that cannot be explained by a crash mid-append (a crash can only
// tear the final line). The server refuses to guess and fails startup.
type CorruptJournalError struct {
	Path string
	Line int
	Err  error
}

func (e *CorruptJournalError) Error() string {
	return fmt.Sprintf("server: journal %s corrupt at line %d: %v", e.Path, e.Line, e.Err)
}

func (e *CorruptJournalError) Unwrap() error { return e.Err }

// Journal is the append-only, fsynced job-state log. Appends go through
// the chaos.FS seam (OpenAppend once at startup, then Write+Sync per
// record), so the crash explorer can kill the server at every journal
// operation and the replay path is obligated to survive all of them.
type Journal struct {
	mu   sync.Mutex
	f    chaos.File
	path string
	// metrics, when non-nil, receives the append+fsync latency histogram
	// (server.journal_append_seconds) — the server's fundamental
	// durability SLO, since every state transition pays it.
	metrics *telemetry.Registry
}

// OpenJournal reads and replays the journal at path (a missing file is an
// empty journal), then opens it for appending. It returns the replayed
// records in order. A torn final line — the footprint of a crash mid-
// append — is dropped and the journal is compacted before reopening, so
// the next append can never concatenate onto the torn bytes; any earlier
// damage is a *CorruptJournalError.
func OpenJournal(fsys chaos.FS, path string) (*Journal, []Record, error) {
	if fsys == nil {
		fsys = chaos.OS
	}
	data, err := fsys.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("server: read journal: %w", err)
	}
	recs, torn, err := parseJournal(path, data)
	if err != nil {
		return nil, nil, err
	}
	if torn {
		// Atomically rewrite the journal without the torn tail. Skipping
		// this would leave the partial line in place, and the next append
		// would glue a valid record onto it — mid-file corruption on the
		// restart after next.
		var buf bytes.Buffer
		for _, rec := range recs {
			line, merr := json.Marshal(rec)
			if merr != nil {
				return nil, nil, fmt.Errorf("server: compact journal: %w", merr)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
		if werr := chaos.WriteFileAtomic(fsys, path, buf.Bytes()); werr != nil {
			return nil, nil, fmt.Errorf("server: compact torn journal: %w", werr)
		}
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, nil, fmt.Errorf("server: open journal for append: %w", err)
	}
	return &Journal{f: f, path: path}, recs, nil
}

// parseJournal decodes the journal bytes, tolerating only a torn tail;
// torn reports whether one was dropped.
func parseJournal(path string, data []byte) (recs []Record, torn bool, err error) {
	lines := bytes.Split(data, []byte("\n"))
	for i, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec Record
		if uerr := json.Unmarshal(line, &rec); uerr != nil {
			if i == len(lines)-1 {
				// No trailing newline and unparseable: the classic torn
				// final append. The record never durably happened.
				return recs, true, nil
			}
			return nil, false, &CorruptJournalError{Path: path, Line: i + 1, Err: uerr}
		}
		if rec.Type == "" || rec.Job == "" {
			return nil, false, &CorruptJournalError{Path: path, Line: i + 1, Err: fmt.Errorf("record missing type or job")}
		}
		recs = append(recs, rec)
	}
	return recs, false, nil
}

// Append durably writes one record: the line lands and is fsynced before
// Append returns, so a crash at any later instant preserves it.
func (j *Journal) Append(rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("server: marshal journal record: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("server: journal %s is closed", j.path)
	}
	start := time.Now()
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("server: append journal record: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("server: sync journal: %w", err)
	}
	j.metrics.Histogram("server.journal_append_seconds", telemetry.LatencyBuckets).
		Observe(time.Since(start).Seconds())
	return nil
}

// Close releases the append handle. Records already appended are durable;
// further Appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
