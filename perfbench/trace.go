package main

// Tracing for the per-layer run. Spans are recorded only here, in wrappers
// the benchmark installs at the program's injection points: the client's
// and the coordinator's HTTP transports (cluster.ClientConfig.Transport), the
// file system handed to hive, and the druid.Client handed to the druid
// connector. Spans stay in memory and are written out at the end as Chrome
// trace-event JSON (load it in chrome://tracing or Perfetto).

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prestolite/internal/cluster"
	"prestolite/internal/druid"
	"prestolite/internal/fsys"
)

// span is one timed call at a layer boundary. Spans of one query share Req
// (the coordinator's query id once known); Parent links a span to the span
// that caused it.
type span struct {
	ID, Parent int64
	Name       string
	Req        string
	Start, End time.Duration // since the tracer's origin
	Bytes      int64
	Hit        bool // a result fetch that returned a page
}

func (s span) dur() time.Duration { return s.End - s.Start }

// maxCapturedPages bounds the encoded pages kept for the codec timings:
// worker result pages and statement reply pages, first come first kept.
const maxCapturedPages = 256

// tracer records spans while on; with it off every wrapper passes straight
// through, which is how a traced run measures its untraced half.
type tracer struct {
	origin time.Time
	nextID atomic.Int64
	on     atomic.Bool

	mu       sync.Mutex
	spans    []span
	pages    [][]byte
	inflight map[string]*queryTrace // session key -> query in flight
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), inflight: map[string]*queryTrace{}}
}

func (t *tracer) now() time.Duration { return time.Since(t.origin) }

func (t *tracer) record(s span) {
	if s.ID == 0 {
		s.ID = t.nextID.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) capturePage(p []byte) {
	t.mu.Lock()
	if len(t.pages) < maxCapturedPages {
		t.pages = append(t.pages, p)
	}
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// queryTrace collects the client-side spans of one query until the query id
// is known, then hands them to the tracer.
type queryTrace struct {
	root  span
	spans []span
	mu    sync.Mutex
}

func (t *tracer) beginQuery(session string) *queryTrace {
	q := &queryTrace{root: span{ID: t.nextID.Add(1), Name: "client.query", Start: t.now()}}
	t.mu.Lock()
	t.inflight[session] = q
	t.mu.Unlock()
	return q
}

func (q *queryTrace) add(s span) {
	q.mu.Lock()
	q.spans = append(q.spans, s)
	q.mu.Unlock()
}

// endQuery files the query's spans under its query id.
func (t *tracer) endQuery(session string, q *queryTrace, queryID string) {
	t.mu.Lock()
	delete(t.inflight, session)
	t.mu.Unlock()
	q.root.End = t.now()
	q.root.Req = queryID
	t.record(q.root)
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, s := range q.spans {
		s.Req = queryID
		t.record(s)
	}
}

func (t *tracer) current(session string) *queryTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.inflight[session]
}

// clientTransport times the client's two hops: the gateway's 307 and the
// coordinator's /v1/statement reply, the latter until its body is closed.
type clientTransport struct {
	t      *tracer
	base   http.RoundTripper
	gwHost string
}

func (c *clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !c.t.on.Load() {
		return c.base.RoundTrip(req)
	}
	q := c.t.current(req.Header.Get("X-Presto-Session"))
	start := c.t.now()
	resp, err := c.base.RoundTrip(req)
	if q == nil {
		return resp, err
	}
	s := span{ID: c.t.nextID.Add(1), Parent: q.root.ID, Name: "cluster.statement", Start: start}
	if req.URL.Host == c.gwHost {
		s.Name = "gateway.hop"
	}
	if err != nil || s.Name == "gateway.hop" {
		s.End = c.t.now()
		q.add(s)
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func(n int64) {
		s.End, s.Bytes = c.t.now(), n
		q.add(s)
	}}
	return resp, nil
}

// spanBody ends its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// coordTransport sits under the coordinator's worker RPCs. Result fetches
// (GET /v1/task/{id}/results?page=N) are timed with their reply read in
// full, attributed to their query by the task id ("q12.f1.t0"), and decoded
// once more to learn whether they carried a page; every other /v1/task call
// counts as a task RPC.
type coordTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (c *coordTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	if !c.t.on.Load() || !strings.HasPrefix(path, "/v1/task") {
		return c.base.RoundTrip(req)
	}
	if req.Method != http.MethodGet || !strings.HasSuffix(path, "/results") {
		start := c.t.now()
		resp, err := c.base.RoundTrip(req)
		c.t.record(span{Name: "cluster.task_rpc", Req: queryOfTask(path), Start: start, End: c.t.now()})
		return resp, err
	}
	taskID := strings.TrimSuffix(strings.TrimPrefix(path, "/v1/task/"), "/results")
	start := c.t.now()
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		c.t.record(span{Name: "cluster.fetch", Req: queryOfTask(taskID), Start: start, End: c.t.now()})
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s := span{Name: "cluster.fetch", Req: queryOfTask(taskID), Start: start, End: c.t.now(), Bytes: int64(len(body))}
	if err != nil {
		c.t.record(s)
		return nil, err
	}
	var chunk cluster.TaskResultChunk
	if gob.NewDecoder(bytes.NewReader(body)).Decode(&chunk) == nil && len(chunk.Page) > 0 {
		s.Hit = true
		c.t.capturePage(chunk.Page)
	}
	c.t.record(s)
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// queryOfTask extracts the query id from a task id or task path.
func queryOfTask(s string) string {
	s = strings.TrimPrefix(s, "/v1/task/")
	s = strings.TrimPrefix(s, "/v1/task")
	if i := strings.Index(s, "."); i >= 0 {
		return s[:i]
	}
	return s
}

// tracedFS counts and times the simulated HDFS calls hive makes.
type tracedFS struct {
	t    *tracer
	base fsys.FileSystem
}

func (f *tracedFS) ListFiles(dir string) ([]fsys.FileInfo, error) {
	if !f.t.on.Load() {
		return f.base.ListFiles(dir)
	}
	start := f.t.now()
	out, err := f.base.ListFiles(dir)
	f.t.record(span{Name: "hdfs.list", Start: start, End: f.t.now()})
	return out, err
}

func (f *tracedFS) GetFileInfo(path string) (fsys.FileInfo, error) {
	if !f.t.on.Load() {
		return f.base.GetFileInfo(path)
	}
	start := f.t.now()
	out, err := f.base.GetFileInfo(path)
	f.t.record(span{Name: "hdfs.stat", Start: start, End: f.t.now()})
	return out, err
}

func (f *tracedFS) Open(path string) (fsys.File, error) {
	file, err := f.base.Open(path)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, t: f.t}, nil
}

func (f *tracedFS) Create(path string) (io.WriteCloser, error) { return f.base.Create(path) }

type tracedFile struct {
	fsys.File
	t *tracer
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	if !f.t.on.Load() {
		return f.File.ReadAt(p, off)
	}
	start := f.t.now()
	n, err := f.File.ReadAt(p, off)
	f.t.record(span{Name: "hdfs.read", Start: start, End: f.t.now(), Bytes: int64(n)})
	return n, err
}

// tracedDruid times every call the druid connector makes to the broker. It
// forwards snapshot versions so the result cache behaves as untraced.
type tracedDruid struct {
	t    *tracer
	base druid.Client
}

func (d *tracedDruid) Execute(q druid.Query) (*druid.Result, error) {
	if !d.t.on.Load() {
		return d.base.Execute(q)
	}
	start := d.t.now()
	res, err := d.base.Execute(q)
	d.t.record(span{Name: "druid.execute", Start: start, End: d.t.now()})
	return res, err
}

func (d *tracedDruid) Tables() ([]string, error) {
	if !d.t.on.Load() {
		return d.base.Tables()
	}
	start := d.t.now()
	out, err := d.base.Tables()
	d.t.record(span{Name: "druid.tables", Start: start, End: d.t.now()})
	return out, err
}

func (d *tracedDruid) Schema(table string) ([]druid.Column, error) {
	if !d.t.on.Load() {
		return d.base.Schema(table)
	}
	start := d.t.now()
	out, err := d.base.Schema(table)
	d.t.record(span{Name: "druid.schema", Start: start, End: d.t.now()})
	return out, err
}

func (d *tracedDruid) TableVersion(table string) (int64, bool) {
	if v, ok := d.base.(druid.Versioner); ok {
		return v.TableVersion(table)
	}
	return 0, false
}

// hooks returns the injection points wired to this tracer.
func (t *tracer) hooks() hooks {
	return hooks{
		coordTransport: &coordTransport{t: t, base: http.DefaultTransport},
		fs:             func(fs fsys.FileSystem) fsys.FileSystem { return &tracedFS{t: t, base: fs} },
		druid:          func(c druid.Client) druid.Client { return &tracedDruid{t: t, base: c} },
	}
}

// writeChrome writes spans as Chrome trace-event JSON ("X" complete events,
// microseconds); each query's spans share a track keyed by its request id.
func writeChrome(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  string         `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		tid := s.Req
		if tid == "" {
			tid = "unattributed"
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: tid,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.dur().Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req, "bytes": s.Bytes},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
