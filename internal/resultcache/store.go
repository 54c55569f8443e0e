// Package resultcache is a content-addressed store mapping a sweep
// spec's SHA-256 digest to its finished result payload, so a repeat
// request for an identical spec is an O(1) read instead of hours of
// Monte Carlo recompute.
//
// Layout on disk mirrors git's object store: dir/<digest[:2]>/<digest>,
// one file per entry, fanned out over 256 subdirectories so no single
// directory grows unboundedly. Each entry is a one-line JSON header —
// spec digest, recorded SHA-256 content hash, payload size, provenance —
// followed by the payload bytes verbatim. Serving verbatim bytes (not a
// re-marshalled copy) is what makes a cache hit byte-identical to the
// original computation's output.
//
// Writes go through the chaos.FS seam with the repo's checkpoint
// discipline (CreateTemp → Write → Sync → Close → Rename → SyncDir →
// stale-.tmp reclamation), so a crash mid-store leaves the previous
// entry or the new one, never a torn mix. Reads recompute the content
// hash and compare it, and check that the header's spec digest matches
// the slot the entry lives under: a tampered, torn, or misfiled entry is
// a typed *CorruptEntryError and a cache miss — never a wrong answer.
//
// Near-miss reuse asks for every entry of one experiment family. Family
// answers from an in-memory index of entry digest → family digest, kept
// per fan-out directory with the directory's mtime. Each call globs the
// store root and stats every fan-out directory, and lists only those
// whose mtime moved since their last listing (or was too recent then to
// be trusted), reading only the entries it has not seen before: a lookup
// on an unchanged store reads no entry and lists only the root. The index
// only names candidates; the caller reads each one through Get, which
// verifies it as above.
package resultcache

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"revft/internal/chaos"
	"revft/internal/telemetry"
)

// Format is the entry header's format tag. Bump it if the entry encoding
// ever changes incompatibly; readers reject unknown formats as corrupt
// rather than guessing.
const Format = "revft-cache/1"

// ErrMiss reports that no entry exists under the requested digest. A
// corrupt entry also reads as a miss at the caller level, but carries a
// *CorruptEntryError so the caller can tell the difference.
var ErrMiss = errors.New("resultcache: miss")

// Meta is an entry's header: one JSON line preceding the payload bytes.
// ContentHash, Size, and StoredAt are filled by Put; SpecDigest is the
// store key; Family optionally groups entries that differ only in their
// ε-grid, enabling near-miss superset→subset reuse lookups (Store.Family).
type Meta struct {
	Format      string    `json:"format"`
	SpecDigest  string    `json:"spec_digest"`
	Family      string    `json:"family,omitempty"`
	Experiment  string    `json:"experiment,omitempty"`
	Tool        string    `json:"tool,omitempty"`
	ContentHash string    `json:"content_hash"`
	Size        int64     `json:"size"`
	StoredAt    time.Time `json:"stored_at"`
}

// CorruptEntryError reports an entry that failed integrity verification:
// the recomputed content hash disagrees with the recorded one, the
// header is unparseable, or the entry sits under a slot whose digest
// disagrees with its header. Digest and hash fields are full-length hex;
// only the Error string truncates for display.
type CorruptEntryError struct {
	Path string
	// SpecDigest is the digest of the slot the entry was read from.
	SpecDigest string
	// RecordedHash is the content hash the header claims; ComputedHash
	// the SHA-256 of the payload bytes actually on disk. Empty when the
	// header itself was unreadable.
	RecordedHash string
	ComputedHash string
	// Reason is a short machine-stable tag: "hash-mismatch",
	// "bad-header", "digest-mismatch", "bad-format", "truncated".
	Reason string
}

func (e *CorruptEntryError) Error() string {
	if e.Reason == "hash-mismatch" {
		return fmt.Sprintf("resultcache: corrupt entry %s: content hash %.12s, recorded %.12s", e.Path, e.ComputedHash, e.RecordedHash)
	}
	return fmt.Sprintf("resultcache: corrupt entry %s: %s", e.Path, e.Reason)
}

// Store is a content-addressed result cache rooted at Dir. The zero
// value is unusable; fill Dir at least. FS defaults to chaos.OS; Metrics
// and Trace are nil-safe no-ops when unset; the zero Retry is the
// default jittered backoff policy (set MaxAttempts 1 to disable). A
// Store holds the family index Family builds on its first call (Put and
// Get never touch it), so use it through a pointer and do not copy it;
// its methods are safe for concurrent use, and several Stores, in one
// process or many, may share one Dir: each sees the others' entries
// through the mtimes of the directories they land in.
type Store struct {
	Dir     string
	FS      chaos.FS
	Retry   chaos.Policy
	Metrics *telemetry.Registry
	Trace   *telemetry.Trace

	// mu guards dirs, Family's index: each fan-out directory's last
	// listing, with the family digest of each verified entry in it. It
	// is a candidate filter only: callers re-read every candidate through
	// Get, which re-verifies it, and never take result bytes from the
	// index.
	mu   sync.Mutex
	dirs map[string]*fanout
}

func (st *Store) fs() chaos.FS {
	if st.FS == nil {
		return chaos.OS
	}
	return st.FS
}

// validDigest reports whether s looks like a full lowercase hex SHA-256
// digest — the only keys the store accepts, so a crafted key can never
// escape Dir or collide with temp files.
func validDigest(s string) bool {
	_, ok := decodeDigest(s)
	return ok
}

// Path returns the entry path for digest inside the store: a two-hex
// fan-out directory then the full digest as the file name.
func (st *Store) Path(digest string) string {
	return filepath.Join(st.Dir, digest[:2], digest)
}

// Put stores payload under digest, atomically and durably, recording its
// SHA-256 content hash in the entry header. An existing entry under the
// same digest is replaced (content-addressing makes that a no-op for
// honest writers and a repair for corrupted entries). meta's provenance
// fields (Family, Experiment, Tool) are kept; the store owns the rest.
func (st *Store) Put(ctx context.Context, digest string, meta Meta, payload []byte, span telemetry.Span) error {
	if !validDigest(digest) {
		return fmt.Errorf("resultcache: invalid digest %q", digest)
	}
	sum := sha256.Sum256(payload)
	meta.Format = Format
	meta.SpecDigest = digest
	meta.ContentHash = hex.EncodeToString(sum[:])
	meta.Size = int64(len(payload))
	meta.StoredAt = time.Now().UTC()
	header, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("resultcache: marshal header: %w", err)
	}
	data := make([]byte, 0, len(header)+1+len(payload))
	data = append(data, header...)
	data = append(data, '\n')
	data = append(data, payload...)

	// The fan-out directory is created outside the chaos seam, like the
	// server's per-job directories: directory creation is idempotent and
	// not part of the crash-consistency argument.
	path := st.Path(digest)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	err = st.Retry.Do(ctx, func() error { return chaos.WriteFileAtomic(st.fs(), path, data) })
	if err != nil {
		st.Metrics.Counter("cache.store_errors").Inc()
		return fmt.Errorf("resultcache: %w", err)
	}
	st.Metrics.Counter("cache.stores").Inc()
	st.Metrics.Counter("cache.stored_bytes").Add(int64(len(payload)))
	st.Trace.EmitSpan("cache_store", span, map[string]any{
		"digest": digest, "bytes": len(payload), "experiment": meta.Experiment,
	})
	return nil
}

// Get returns the payload stored under digest after verifying its
// content hash and slot binding. A missing entry returns ErrMiss; a
// failed verification returns a *CorruptEntryError (which the caller
// should treat as a miss — the entry is never served). Both outcomes
// and hits are counted in the cache.{hits,misses,corrupt} metrics.
func (st *Store) Get(digest string, span telemetry.Span) ([]byte, Meta, error) {
	if !validDigest(digest) {
		return nil, Meta{}, fmt.Errorf("resultcache: invalid digest %q", digest)
	}
	path := st.Path(digest)
	data, err := st.fs().ReadFile(path)
	if err != nil {
		st.Metrics.Counter("cache.misses").Inc()
		st.Trace.EmitSpan("cache_lookup", span, map[string]any{"digest": digest, "outcome": "miss"})
		return nil, Meta{}, ErrMiss
	}
	meta, payload, verr := verifyEntry(path, digest, data)
	if verr != nil {
		st.Metrics.Counter("cache.corrupt").Inc()
		st.Trace.EmitSpan("cache_lookup", span, map[string]any{
			"digest": digest, "outcome": "corrupt", "reason": verr.Reason,
		})
		return nil, Meta{}, verr
	}
	st.Metrics.Counter("cache.hits").Inc()
	st.Metrics.Counter("cache.bytes").Add(int64(len(payload)))
	st.Trace.EmitSpan("cache_lookup", span, map[string]any{
		"digest": digest, "outcome": "hit", "bytes": len(payload),
	})
	return payload, meta, nil
}

// verifyEntry parses and integrity-checks one raw entry. slotDigest is
// the digest the entry is filed under.
func verifyEntry(path, slotDigest string, data []byte) (Meta, []byte, *CorruptEntryError) {
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		return Meta{}, nil, &CorruptEntryError{Path: path, SpecDigest: slotDigest, Reason: "truncated"}
	}
	var meta Meta
	if err := json.Unmarshal(data[:i], &meta); err != nil {
		return Meta{}, nil, &CorruptEntryError{Path: path, SpecDigest: slotDigest, Reason: "bad-header"}
	}
	if meta.Format != Format {
		return Meta{}, nil, &CorruptEntryError{Path: path, SpecDigest: slotDigest, Reason: "bad-format"}
	}
	if meta.SpecDigest != slotDigest {
		return Meta{}, nil, &CorruptEntryError{
			Path: path, SpecDigest: slotDigest,
			RecordedHash: meta.ContentHash, Reason: "digest-mismatch",
		}
	}
	payload := data[i+1:]
	sum := sha256.Sum256(payload)
	computed := hex.EncodeToString(sum[:])
	if computed != meta.ContentHash || int64(len(payload)) != meta.Size {
		return Meta{}, nil, &CorruptEntryError{
			Path: path, SpecDigest: slotDigest,
			RecordedHash: meta.ContentHash, ComputedHash: computed,
			Reason: "hash-mismatch",
		}
	}
	return meta, payload, nil
}

// entryPaths lists every entry file in the store, sorted, skipping temp
// litter and anything whose name is not a full digest.
func (st *Store) entryPaths() ([]string, error) {
	paths, err := st.fs().Glob(filepath.Join(st.Dir, "??", "*"))
	if err != nil {
		return nil, fmt.Errorf("resultcache: scan %s: %w", st.Dir, err)
	}
	out := paths[:0]
	for _, p := range paths {
		if validDigest(filepath.Base(p)) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out, nil
}

// indexed is one entry's index value. ok is false for an entry whose
// header carries no family digest: it is recorded so it is not read
// again, but no Family call returns it.
type indexed struct {
	family [32]byte
	ok     bool
}

// racyWindow bounds the granularity of directory timestamps (2 s, FAT's,
// the coarsest in common use). An entry written into a directory in the
// same clock tick as the listing that read it may leave the directory's
// mtime where the listing saw it; so, as in git's racy-index rule, a
// directory whose recorded mtime is not older than its listing's start
// minus racyWindow is listed again.
const racyWindow = 2 * time.Second

// fanout is Family's record of one fan-out directory as last listed.
type fanout struct {
	// mtime is the directory's mtime, taken before the listing; zero if
	// its stat failed.
	mtime time.Time
	// listed is when the lookup that listed it began.
	listed time.Time
	// retry is set when a name in it could not be read or verified, so
	// the next lookup lists it again and retries that name.
	retry bool
	// entries are its verified entries.
	entries map[[32]byte]indexed
}

// current reports whether f still describes a directory whose stat is
// (fi, err): the listing read every name, the mtime is unchanged, and
// the mtime was older than the listing by more than racyWindow.
func (f *fanout) current(fi os.FileInfo, err error) bool {
	return f != nil && !f.retry && err == nil && fi.ModTime().Equal(f.mtime) &&
		f.mtime.Before(f.listed.Add(-racyWindow))
}

// hexValue maps each lowercase hex digit to its value and every other
// byte to 0xff.
var hexValue = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xff
	}
	for c := byte('0'); c <= '9'; c++ {
		t[c] = c - '0'
	}
	for c := byte('a'); c <= 'f'; c++ {
		t[c] = c - 'a' + 10
	}
	return t
}()

// decodeDigest parses a full lowercase hex digest into its binary form;
// ok is false for anything else.
func decodeDigest(s string) (d [32]byte, ok bool) {
	if len(s) != 64 {
		return d, false
	}
	for i := range d {
		hi, lo := hexValue[s[2*i]], hexValue[s[2*i+1]]
		if hi|lo > 0xf {
			return [32]byte{}, false
		}
		d[i] = hi<<4 | lo
	}
	return d, true
}

// Family returns the spec digests of the entries whose header names
// family, in sorted digest order — the near-miss reuse candidates.
//
// Each call globs the store root for its fan-out directories and stats
// each one; it lists again only a directory that is new, whose mtime
// moved or whose stat failed, that holds a name it could not verify, or
// that was written too close to its last listing to trust its mtime
// (racyWindow). So a lookup on an unchanged store costs one glob and a
// stat per directory, and an entry another process stores into a shared
// Dir is seen by the next call, through its directory's new mtime. A
// name seen for the first time is read and verified, and indexed only if
// it verifies (a corrupt entry is read again on the next call, so a
// healed entry is picked up); indexed names are not read again; names
// and directories gone from disk drop out. A returned candidate may have
// been corrupted or replaced since it was indexed: read it with Get, and
// check the header it returns.
func (st *Store) Family(family string) ([]string, error) {
	want, ok := decodeDigest(family)
	if !ok {
		return nil, fmt.Errorf("resultcache: invalid family digest %q", family)
	}
	start := time.Now()
	dirs, err := st.fs().Glob(filepath.Join(st.Dir, "??"))
	if err != nil {
		return nil, fmt.Errorf("resultcache: scan %s: %w", st.Dir, err)
	}
	// The lock is held across the listings and the reads of new entries
	// so that lookups racing on one read it once; they go to the store's
	// FS, which never calls back into the Store.
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.dirs == nil {
		st.dirs = make(map[string]*fanout)
	}
	live := 0
	for _, dir := range dirs {
		name := filepath.Base(dir)
		if len(name) != 2 || hexValue[name[0]]|hexValue[name[1]] > 0xf {
			continue
		}
		live++
		// Like Put's MkdirAll, the stat is outside the chaos seam: it
		// only decides whether to list, and a failed one lists.
		fi, serr := os.Stat(dir)
		if st.dirs[name].current(fi, serr) {
			continue
		}
		if err := st.relist(dir, name, fi, serr, start); err != nil {
			return nil, err
		}
	}
	if live < len(st.dirs) {
		keep := make(map[string]bool, live)
		for _, dir := range dirs {
			keep[filepath.Base(dir)] = true
		}
		for name := range st.dirs {
			if !keep[name] {
				delete(st.dirs, name)
			}
		}
	}
	var out []string
	for _, f := range st.dirs {
		for d, e := range f.entries {
			if e.ok && e.family == want {
				out = append(out, hex.EncodeToString(d[:]))
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// relist lists the fan-out directory dir (base name) afresh, given the
// stat taken before the listing and the start of the lookup, reads the
// names it has not indexed, and replaces its record. st.mu is held.
func (st *Store) relist(dir, name string, fi os.FileInfo, statErr error, start time.Time) error {
	paths, err := st.fs().Glob(filepath.Join(dir, "*"))
	if err != nil {
		return fmt.Errorf("resultcache: scan %s: %w", dir, err)
	}
	old := st.dirs[name]
	if old == nil {
		old = &fanout{}
	}
	f := &fanout{listed: start, entries: make(map[[32]byte]indexed, len(paths))}
	if statErr == nil {
		f.mtime = fi.ModTime()
	}
	for _, p := range paths {
		// Only a full digest filed under its own fan-out directory is an
		// entry Get can read; temp litter and misfiled names are skipped.
		base := filepath.Base(p)
		d, ok := decodeDigest(base)
		if !ok || base[:2] != name {
			continue
		}
		e, seen := old.entries[d]
		if !seen {
			if e, ok = st.indexEntry(p, base); !ok {
				f.retry = true
				continue
			}
		}
		f.entries[d] = e
	}
	st.dirs[name] = f
	return nil
}

// indexEntry reads and verifies the entry at path exactly as Get does and
// returns its index value; ok is false if it is unreadable or corrupt.
func (st *Store) indexEntry(path, name string) (e indexed, ok bool) {
	data, err := st.fs().ReadFile(path)
	if err != nil {
		return e, false
	}
	meta, _, verr := verifyEntry(path, name, data)
	if verr != nil {
		return e, false
	}
	e.family, e.ok = decodeDigest(meta.Family)
	return e, true
}

// AuditEntry is one entry's verdict in an audit report.
type AuditEntry struct {
	Path       string `json:"path"`
	SpecDigest string `json:"spec_digest"`
	Experiment string `json:"experiment,omitempty"`
	Size       int64  `json:"size"`
	OK         bool   `json:"ok"`
	// Error is the corruption description for failed entries.
	Error string `json:"error,omitempty"`
	// Reason is the machine-stable corruption tag for failed entries.
	Reason string `json:"reason,omitempty"`
}

// AuditReport summarizes a full-store integrity scan.
type AuditReport struct {
	Dir     string       `json:"dir"`
	Entries []AuditEntry `json:"entries"`
	OK      int          `json:"ok"`
	Corrupt int          `json:"corrupt"`
}

// Audit re-hashes every entry in the store and reports each verdict —
// the offline counterpart of Get's per-read verification, for operators
// checking a cache directory wholesale (revft-verify -cache).
func (st *Store) Audit() (AuditReport, error) {
	rep := AuditReport{Dir: st.Dir}
	paths, err := st.entryPaths()
	if err != nil {
		return rep, err
	}
	for _, p := range paths {
		ae := AuditEntry{Path: p, SpecDigest: filepath.Base(p)}
		data, rerr := st.fs().ReadFile(p)
		if rerr != nil {
			ae.Error = rerr.Error()
			ae.Reason = "unreadable"
		} else if meta, payload, verr := verifyEntry(p, filepath.Base(p), data); verr != nil {
			ae.Error = verr.Error()
			ae.Reason = verr.Reason
		} else {
			ae.OK = true
			ae.Experiment = meta.Experiment
			ae.Size = int64(len(payload))
		}
		if ae.OK {
			rep.OK++
		} else {
			rep.Corrupt++
		}
		rep.Entries = append(rep.Entries, ae)
	}
	return rep, nil
}
