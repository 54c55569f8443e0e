package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"revft/internal/chaos"
	"revft/internal/server"
)

// Spans are recorded only by the benchmark's own code, around calls into
// the program's seams: the server Driver and its sweep.PointFunc, the
// chaos.FS handed to the sweep runner, the journal and the result cache,
// the server's http.Handler and the client's http.Client. Nothing inside
// the program is instrumented. A nil *tracer records nothing, which is
// how untraced runs measure end-to-end metrics: they install no wrapper
// at all.

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer started. Spans of one job share Job; Attr carries the path,
// digest or route the call was about, N a work count (trials, bytes).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Job    string `json:"job,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"`
	Attr   string `json:"attr,omitempty"`
	Note   string `json:"note,omitempty"`
	Err    bool   `json:"err,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

type tracer struct {
	t0    time.Time
	seq   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// record stores s, with a fresh ID unless it has one, and returns the ID.
func (t *tracer) record(s span) int64 {
	if t == nil {
		return 0
	}
	if s.ID == 0 {
		s.ID = t.seq.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// snapshot returns the spans recorded so far, ordered by start time.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// writeJSONL writes the manifest line and every span to path.
func (t *tracer) writeJSONL(path string, manifest any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	werr := enc.Encode(map[string]any{"manifest": manifest})
	for _, s := range t.snapshot() {
		if werr != nil {
			break
		}
		werr = enc.Encode(s)
	}
	if werr == nil {
		werr = w.Flush()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// covered returns how much of [lo, hi) the intervals cover, counting
// overlaps once: a parent's duration minus covered(children) is its self
// time.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	var clip [][2]int64
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			clip = append(clip, [2]int64{a, b})
		}
	}
	sort.Slice(clip, func(i, j int) bool { return clip[i][0] < clip[j][0] })
	var total, end int64
	end = lo
	for _, iv := range clip {
		if iv[0] > end {
			end = iv[0]
		}
		if iv[1] > end {
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}

// atomicWrites finds the atomic file writes among spans named
// <prefix><op> on paths containing marker: each runs from CreateTemp to
// the Glob for stale temp files that ends sweep.Checkpoint.SaveFS and the
// result cache's writes alike. It returns their durations in ms and the
// fsyncs they issued, of the temp file and of its directory.
func atomicWrites(spans []span, prefix, marker string) (durs []float64, fsyncs int) {
	open := map[string]int64{} // final path -> CreateTemp start
	for _, s := range spans {
		op, ok := strings.CutPrefix(s.Name, prefix)
		if !ok {
			continue
		}
		if op == "syncdir" {
			for path := range open {
				if filepath.Dir(path)+"/" == s.Attr {
					fsyncs++
					break
				}
			}
			continue
		}
		if !strings.Contains(s.Attr, marker) {
			continue
		}
		path, _, _ := strings.Cut(s.Attr, ".tmp")
		switch op {
		case "create_temp":
			open[path] = s.Start
		case "sync":
			fsyncs++
		case "glob":
			if t0, ok := open[path]; ok {
				durs = append(durs, float64(s.End-t0)/1e6)
				delete(open, path)
			}
		}
	}
	return durs, fsyncs
}

// jobDirRE extracts a job ID from a server data path (jobs/<id>/...).
var jobDirRE = regexp.MustCompile(`/jobs/(j[0-9]+-[0-9a-f]+)/`)

// journalJobRE extracts the job ID from a journal record line.
var journalJobRE = regexp.MustCompile(`"job":"([^"]+)"`)

// traceFS wraps a chaos.FS and records one span per operation, named
// fs.<label>.<op>. Spans on a job's files carry the job's ID.
type traceFS struct {
	inner chaos.FS
	tr    *tracer
	label string
}

func (f *traceFS) rec(op, path string, start int64, n int64, err error) {
	job := ""
	if m := jobDirRE.FindStringSubmatch(path); m != nil {
		job = m[1]
	}
	f.tr.record(span{Name: "fs." + f.label + "." + op, Job: job, Start: start, End: f.tr.now(), N: n, Attr: path, Err: err != nil})
}

func (f *traceFS) wrap(fl chaos.File, err error) (chaos.File, error) {
	if err != nil {
		return nil, err
	}
	return &traceFile{inner: fl, fs: f}, nil
}

func (f *traceFS) Create(name string) (chaos.File, error) {
	s := f.tr.now()
	fl, err := f.inner.Create(name)
	f.rec("create", name, s, 0, err)
	return f.wrap(fl, err)
}

func (f *traceFS) OpenAppend(name string) (chaos.File, error) {
	s := f.tr.now()
	fl, err := f.inner.OpenAppend(name)
	f.rec("open_append", name, s, 0, err)
	return f.wrap(fl, err)
}

func (f *traceFS) CreateTemp(dir, pattern string) (chaos.File, error) {
	s := f.tr.now()
	fl, err := f.inner.CreateTemp(dir, pattern)
	name := filepath.Join(dir, pattern)
	if err == nil {
		name = fl.Name()
	}
	f.rec("create_temp", name, s, 0, err)
	return f.wrap(fl, err)
}

func (f *traceFS) Rename(oldpath, newpath string) error {
	s := f.tr.now()
	err := f.inner.Rename(oldpath, newpath)
	f.rec("rename", oldpath+" "+newpath, s, 0, err)
	return err
}

func (f *traceFS) Remove(name string) error {
	s := f.tr.now()
	err := f.inner.Remove(name)
	f.rec("remove", name, s, 0, err)
	return err
}

func (f *traceFS) ReadFile(name string) ([]byte, error) {
	s := f.tr.now()
	b, err := f.inner.ReadFile(name)
	f.rec("read", name, s, int64(len(b)), err)
	return b, err
}

func (f *traceFS) Glob(pattern string) ([]string, error) {
	s := f.tr.now()
	m, err := f.inner.Glob(pattern)
	f.rec("glob", pattern, s, int64(len(m)), err)
	return m, err
}

func (f *traceFS) SyncDir(dir string) error {
	s := f.tr.now()
	err := f.inner.SyncDir(dir)
	f.rec("syncdir", dir+"/", s, 0, err)
	return err
}

// traceFile records Write, Sync and Close. A journal file's spans carry
// the job named in the record being appended.
type traceFile struct {
	inner chaos.File
	fs    *traceFS
	job   string
}

func (t *traceFile) rec(op string, start, n int64, err error) {
	job := t.job
	if job == "" {
		if m := jobDirRE.FindStringSubmatch(t.inner.Name()); m != nil {
			job = m[1]
		}
	}
	t.fs.tr.record(span{Name: "fs." + t.fs.label + "." + op, Job: job, Start: start, End: t.fs.tr.now(), N: n, Attr: t.inner.Name(), Err: err != nil})
}

func (t *traceFile) Write(p []byte) (int, error) {
	if t.fs.label == "journal" {
		if m := journalJobRE.FindSubmatch(p); m != nil {
			t.job = string(m[1])
		}
	}
	s := t.fs.tr.now()
	n, err := t.inner.Write(p)
	t.rec("write", s, int64(n), err)
	return n, err
}

func (t *traceFile) Sync() error {
	s := t.fs.tr.now()
	err := t.inner.Sync()
	t.rec("sync", s, 0, err)
	return err
}

func (t *traceFile) Close() error {
	s := t.fs.tr.now()
	err := t.inner.Close()
	t.rec("close", s, 0, err)
	return err
}

func (t *traceFile) Name() string { return t.inner.Name() }

// jobPathRE extracts the job ID from a per-job API path.
var jobPathRE = regexp.MustCompile(`^/jobs/([^/?]+)`)

func jobOf(path string) string {
	if m := jobPathRE.FindStringSubmatch(path); m != nil {
		return m[1]
	}
	return ""
}

// countingTransport is the client's http.RoundTripper seam in traced
// passes: it counts requests and the responses a retrying client backs
// off from, and records one span per request.
type countingTransport struct {
	inner     http.RoundTripper
	tr        *tracer
	requests  atomic.Int64
	retryable atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s := c.tr.now()
	c.requests.Add(1)
	resp, err := c.inner.RoundTrip(req)
	bad := err != nil || resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500
	if bad {
		c.retryable.Add(1)
	}
	c.tr.record(span{Name: "client.request", Job: jobOf(req.URL.Path), Start: s, End: c.tr.now(),
		Attr: req.Method + " " + req.URL.RequestURI(), Err: bad})
	return resp, err
}

// routeOf names the API route of a request for handler spans.
func routeOf(r *http.Request) string {
	p := strings.TrimPrefix(r.URL.Path, "/jobs")
	switch {
	case r.Method == http.MethodPost && p == "":
		return "submit"
	case r.Method == http.MethodGet && p == "" && r.URL.Query().Get("digest") != "":
		return "lookup"
	case r.Method == http.MethodGet && strings.HasSuffix(p, "/result"):
		return "result"
	case r.Method == http.MethodGet && strings.Count(p, "/") == 1:
		return "status"
	}
	return "other"
}

// tracedHandler is the server's http.Handler seam: one span per request,
// named http.<route>. The end of an accepted submission's span is when
// its job counts as accepted; onSubmit receives the job's ID.
type tracedHandler struct {
	inner    http.Handler
	tr       *tracer
	onSubmit func(id string)
}

type captureWriter struct {
	http.ResponseWriter
	status int
	body   bytes.Buffer
}

func (c *captureWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.body.Write(p)
	return c.ResponseWriter.Write(p)
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := routeOf(r)
	s := h.tr.now()
	if route != "submit" {
		h.inner.ServeHTTP(w, r)
		h.tr.record(span{Name: "http." + route, Job: jobOf(r.URL.Path), Start: s, End: h.tr.now(), Attr: r.URL.RequestURI()})
		return
	}
	cw := &captureWriter{ResponseWriter: w, status: http.StatusOK}
	h.inner.ServeHTTP(cw, r)
	end := h.tr.now()
	var st server.JobStatus
	_ = json.Unmarshal(cw.body.Bytes(), &st) // a refusal body has no ID
	h.tr.record(span{Name: "http.submit", Job: st.ID, Start: s, End: end, N: int64(st.ReusedPoints),
		Attr: st.SpecDigest, Note: st.Cache, Err: cw.status != http.StatusAccepted})
	if st.ID != "" && h.onSubmit != nil {
		h.onSubmit(st.ID)
	}
}
