package main

// The load driver. Query clients are closed loops (a dashboard or an analyst
// waits for each reply); hybrid_ingest adds one open-loop producer that
// streams events at eventsPerSec whatever the readers do. Each query is timed
// at the client from sending the SQL to the gateway until its last row is
// decoded.

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"prestolite/internal/cluster"
	"prestolite/internal/workload"
)

// sessions is the number of closed-loop query clients of every workload:
// nproc on the 2-core reference host. hybrid_ingest runs them next to its
// producer.
const sessions = 2

// phase is one measured interval of a run.
type phase struct {
	dur        time.Duration
	traced     bool
	start, end time.Time // set when the phase begins

	mu        sync.Mutex
	completed int64
	slots     []slot    // one per slice, made when the phase begins
	windows   []window  // closed windows
	win, prev []float64 // latencies of the open window and of the last closed one
	winFrom   int       // first slice of the open window
	late      int64     // latencies recorded after their slice was summarized
	attempted int64
	errors    int64
	wrong     int64
	firstErr  string
	replies   *replies // dashboard and adhoc_nested replies, checked afterwards
	infos     []cluster.QueryInfo
	sqls      []statement // statements completed, for the offline layer timings

	cpuMarks      []time.Duration // process CPU at each slice boundary
	before, after clusterStats    // traced phase: every node's /v1/stats
	// hybrid_ingest
	fresh, ack []float64 // ms, events due inside the phase
	sendUs     []float64
	lagMax     int64
	fsyncs     int64
}

// slot is one slice of a phase. Its latencies are kept only until the
// slice is summarized, so the benchmark's own memory stays small and does
// not grow with the program's throughput.
type slot struct {
	lat    []float64 // ms, completed queries
	n      int       // completed queries, kept after lat is released
	heap   float64   // peak sampled live heap, bytes
	closed bool
}

// window is a run of consecutive slices holding at least minTailSamples
// completed queries (or the whole phase, when it holds fewer), and its
// figures.
type window struct {
	from, to                 int // slices, inclusive
	qps, cpu, p50, p99, heap float64
}

func (p *phase) contains(t time.Time) bool { return !t.Before(p.start) && t.Before(p.end) }

// sliceLen is the length of the slices a phase's windows are made of (see
// endToEnd).
const sliceLen = 2500 * time.Millisecond

func (p *phase) slices() int { return max(1, int((p.dur+sliceLen/2)/sliceLen)) }

// record adds the latency of a query completed at t. Caller holds p.mu.
func (p *phase) record(t time.Time, latMs float64) {
	p.completed++
	k := min(len(p.slots)-1, int(t.Sub(p.start)*time.Duration(len(p.slots))/p.dur))
	if p.slots[k].closed {
		p.late++
		return
	}
	p.slots[k].lat = append(p.slots[k].lat, latMs)
}

// closeSlice releases slice k's latencies into the open window, which
// closes once it holds minTailSamples. Caller holds p.mu.
func (p *phase) closeSlice(k int) {
	s := &p.slots[k]
	s.n, s.closed = len(s.lat), true
	p.win = append(p.win, s.lat...)
	s.lat = nil
	if len(p.win) >= minTailSamples {
		p.windows = append(p.windows, p.summarize(p.winFrom, k, p.win))
		p.prev, p.win, p.winFrom = p.win, nil, k+1
	}
}

// summarize computes the figures of the window of slices from..to.
func (p *phase) summarize(from, to int, lat []float64) window {
	secs := p.dur.Seconds() * float64(to-from+1) / float64(len(p.slots))
	n := float64(len(lat))
	w := window{
		from: from, to: to,
		qps: n / secs,
		cpu: ratio(ms(p.cpuMarks[to+1]-p.cpuMarks[from]), n),
		p50: percentile(lat, 0.5),
		p99: percentile(lat, 0.99),
	}
	for k := from; k <= to; k++ {
		w.heap = max(w.heap, p.slots[k].heap)
	}
	return w
}

// finish summarizes what is left once no session records any more. A
// trailing window short of minTailSamples joins the last closed one.
func (p *phase) finish() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k := range p.slots {
		if !p.slots[k].closed {
			p.closeSlice(k)
		}
	}
	last := len(p.slots) - 1
	if p.winFrom <= last {
		if n := len(p.windows); n > 0 {
			p.windows[n-1] = p.summarize(p.windows[n-1].from, last, append(p.prev, p.win...))
		} else {
			p.windows = []window{p.summarize(0, last, p.win)}
		}
	}
	p.prev, p.win = nil, nil
}

func (p *phase) fail(msg string) {
	if p.firstErr == "" {
		p.firstErr = msg
	}
}

// runner drives one workload against a stack.
type runner struct {
	st     *stack
	wl     string
	seed   int64
	client *cluster.Client
	tr     *tracer // nil: untraced run
	ids    *idFinder
	hy     *hybridState

	catalog, schema string
	streams         []stream

	mu   sync.Mutex
	cur  *phase     // nil while warming up
	warm []*replies // replies received outside any phase
}

func newRunner(st *stack, wl string, seed int64, tr *tracer) *runner {
	r := &runner{st: st, wl: wl, seed: seed, tr: tr}
	r.catalog, r.schema = st.data.session()
	// The client owns its connection pool, as a separate client process
	// would, instead of sharing the one the in-process servers dial with.
	cfg := cluster.ClientConfig{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	if tr != nil {
		cfg.Transport = &clientTransport{t: tr, base: cfg.Transport, gwHost: st.gw.Addr()}
		r.ids = &idFinder{addr: st.coord.Addr(), claimed: map[int64]bool{}}
	}
	r.client = cluster.NewClientWithConfig(st.gw.Addr(), cfg)
	if wl == "hybrid_ingest" {
		r.hy = newHybridState()
	}
	for i := 0; i < sessions; i++ {
		seed := seed*1_000_003 + int64(i)
		switch wl {
		case "dashboard":
			r.streams = append(r.streams, &dashboardStream{i: i * 3})
		case "adhoc_nested":
			r.streams = append(r.streams, newAdhocStream(seed))
		default:
			r.streams = append(r.streams, newHybridStream(seed))
		}
	}
	return r
}

// run warms up for warm, then measures each phase back to back. Sessions
// (and the producer) run across all of them without pause.
func (r *runner) run(warm time.Duration, phases []*phase) error {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	prodDone := make(chan struct{})
	if r.hy != nil {
		go func() {
			defer close(prodDone)
			r.hy.produce(r, stop)
		}()
	} else {
		close(prodDone)
	}
	for i, s := range r.streams {
		wg.Add(1)
		go func(i int, s stream) {
			defer wg.Done()
			r.session(i, s, stop)
		}(i, s)
	}
	time.Sleep(warm)
	var err error
	for _, p := range phases {
		if err = r.measure(p); err != nil {
			break
		}
	}
	close(stop)
	wg.Wait()
	<-prodDone
	for _, p := range phases {
		p.finish()
	}
	return err
}

// measure runs one phase: it installs it as current, samples the heap while
// it lasts, reads the process's rusage CPU at every slice boundary, and
// summarizes each slice once no more latencies can arrive for it.
func (r *runner) measure(p *phase) error {
	dur := p.dur
	p.replies = newReplies()
	if r.tr != nil {
		r.tr.on.Store(p.traced)
		if p.traced {
			if err := r.ids.reset(); err != nil {
				return err
			}
			var err error
			if p.before, err = snapshotCluster(r.st); err != nil {
				return err
			}
		}
	}
	var fsync0 int64
	if r.st.ingest != nil {
		fsync0 = r.st.ingest.log.WAL().Stats().Fsyncs
	}
	p.start = time.Now()
	p.end = p.start.Add(dur)
	p.cpuMarks = []time.Duration{cpuTime()}
	p.slots = make([]slot, p.slices())
	r.mu.Lock()
	r.cur = p
	r.mu.Unlock()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	for i := 1; i <= p.slices(); i++ {
		sliceEnd := p.start.Add(time.Duration(i) * dur / time.Duration(p.slices()))
		for now := time.Now(); now.Before(sliceEnd); now = time.Now() {
			metrics.Read(sample)
			s := &p.slots[i-1]
			s.heap = max(s.heap, float64(sample[0].Value.Uint64()))
			time.Sleep(min(50*time.Millisecond, sliceEnd.Sub(now)))
		}
		p.cpuMarks = append(p.cpuMarks, cpuTime())
		// The slice before the one just ended can take no more latencies:
		// a session records its query within moments of completing it.
		if i >= 2 {
			p.mu.Lock()
			p.closeSlice(i - 2)
			p.mu.Unlock()
		}
	}
	if p.traced {
		var err error
		if p.after, err = snapshotCluster(r.st); err != nil {
			return err
		}
	}
	if r.st.ingest != nil {
		p.fsyncs = r.st.ingest.log.WAL().Stats().Fsyncs - fsync0
	}
	r.mu.Lock()
	r.cur = nil
	r.mu.Unlock()
	if r.tr != nil {
		r.tr.on.Store(false)
	}
	return nil
}

func (r *runner) phaseAt(t time.Time) *phase {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur != nil && r.cur.contains(t) {
		return r.cur
	}
	return nil
}

// session is one closed-loop client.
func (r *runner) session(i int, s stream, stop chan struct{}) {
	key := fmt.Sprintf("%s-%d", r.wl, i)
	v := newSeen()
	warmReplies := newReplies()
	defer func() {
		r.mu.Lock()
		r.warm = append(r.warm, warmReplies)
		r.mu.Unlock()
	}()
	for {
		select {
		case <-stop:
			return
		default:
		}
		st := s.next()
		p := r.phaseAt(time.Now())
		var qt *queryTrace
		traced := p != nil && p.traced
		if traced {
			qt = r.tr.beginQuery(key)
		}
		t0 := time.Now()
		res, err := r.client.QueryWithSession(cluster.StatementRequest{Query: st.SQL, Catalog: r.catalog, Schema: r.schema, User: key}, key, "", key)
		var rows [][]any
		if err == nil {
			d0 := time.Duration(0)
			if traced {
				d0 = r.tr.now()
			}
			rows, err = res.Rows()
			if traced {
				qt.add(span{ID: r.tr.nextID.Add(1), Parent: qt.root.ID, Name: "block.client_decode", Start: d0, End: r.tr.now()})
				for _, page := range res.Pages {
					r.tr.capturePage(page)
				}
			}
		}
		t1 := time.Now()
		var info cluster.QueryInfo
		if traced {
			var ok bool
			if info, ok = r.ids.find(key, st.SQL); !ok {
				r.ids.misses.Add(1)
			}
			r.tr.endQuery(key, qt, info.ID)
		}
		// A query counts in the phase it completes in.
		p = r.phaseAt(t1)
		if p == nil {
			if err == nil && r.hy == nil {
				warmReplies.add(st, fingerprintRows(rows, st.Ordered))
			}
			if err == nil && r.hy != nil {
				if msg := r.hy.check(st, rows, t1, nil, v); msg != "" {
					r.hy.strayFailure("warm-up: " + msg)
				}
			}
			continue
		}
		p.mu.Lock()
		p.attempted++
		if err != nil {
			p.errors++
			p.fail(fmt.Sprintf("%s: %v", st.Class, err))
			p.mu.Unlock()
			continue
		}
		p.record(t1, float64(t1.Sub(t0).Nanoseconds())/1e6)
		if traced {
			p.infos = append(p.infos, info)
			p.sqls = append(p.sqls, st)
		}
		p.mu.Unlock()
		if r.hy != nil {
			if msg := r.hy.check(st, rows, t1, p, v); msg != "" {
				p.mu.Lock()
				p.wrong++
				p.fail(msg)
				p.mu.Unlock()
			}
		} else {
			p.replies.add(st, fingerprintRows(rows, st.Ordered))
		}
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// idFinder maps a finished query to its coordinator query id by scanning
// /v1/query/{id} upwards from the first id of the traced phase. A session has
// one query in flight and never sends the same statement twice in a row, so
// the lowest unclaimed id with the session's user and statement is its query.
// Ids that no longer resolve (the coordinator keeps the last 128) are
// skipped once a higher one matches.
type idFinder struct {
	addr    string
	misses  atomic.Int64 // queries whose id was not found
	mu      sync.Mutex
	low     int64
	claimed map[int64]bool
}

// maxIDGap bounds the run of unresolvable ids scanned before giving up.
const maxIDGap = 64

func (f *idFinder) reset() error {
	snap, err := fetchStats(f.addr)
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.low = snap.Counters["queries_submitted"] + 1
	f.claimed = map[int64]bool{}
	f.mu.Unlock()
	return nil
}

func (f *idFinder) find(user, sql string) (cluster.QueryInfo, bool) {
	f.mu.Lock()
	k := f.low
	f.mu.Unlock()
	var gone []int64
	for ; len(gone) <= maxIDGap; k++ {
		f.mu.Lock()
		taken := f.claimed[k]
		f.mu.Unlock()
		if taken {
			continue
		}
		qi, ok := fetchQueryInfo(f.addr, "q"+strconv.FormatInt(k, 10))
		if !ok {
			gone = append(gone, k)
			continue
		}
		if qi.User != user || qi.Query != sql {
			continue
		}
		f.mu.Lock()
		f.claimed[k] = true
		for _, g := range gone {
			f.claimed[g] = true
		}
		for f.claimed[f.low] {
			delete(f.claimed, f.low)
			f.low++
		}
		f.mu.Unlock()
		return qi, true
	}
	return cluster.QueryInfo{}, false
}

// monitor is the benchmark's own client for /v1/stats and /v1/query/{id}.
// It keeps enough idle connections per host that the traced run's per-query
// lookups reuse them rather than dialing anew each time.
var monitor = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}, Timeout: 10 * time.Second}

func fetchQueryInfo(addr, id string) (cluster.QueryInfo, bool) {
	var qi cluster.QueryInfo
	resp, err := monitor.Get("http://" + addr + "/v1/query/" + id)
	if err != nil {
		return qi, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&qi) != nil {
		return qi, false
	}
	return qi, true
}

// statsSnapshot is the JSON a node serves at /v1/stats.
type statsSnapshot struct {
	Counters map[string]int64
	Gauges   map[string]float64
}

func fetchStats(addr string) (statsSnapshot, error) {
	var s statsSnapshot
	resp, err := monitor.Get("http://" + addr + "/v1/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("stats %s: %s", addr, resp.Status)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// ---------------------------------------------------------------------------
// hybrid_ingest: producer and answer checks.

type pendingEvent struct {
	seq int64
	due time.Time
}

// hybridState is shared by the producer and the query clients. Every event
// is counted as sent before it is handed to the producer, so sent counts are
// an upper bound on what any query may see.
type hybridState struct {
	mu      sync.Mutex
	sentN   [8]int64
	sentSum [8]int64
	pending [8][]pendingEvent
	stray   string // first failure not charged to a phase

	histN   [8]int64
	histSum [8]int64
}

// seen is what one query client has observed of the real-time side. A
// client's queries run one after another, so what it sees may never shrink;
// two clients' replies may complete out of order, so each has its own.
type seen struct {
	n   [8]int64 // real-time rows per country
	max [8]int64 // newest event per country
}

func newSeen() *seen {
	v := &seen{}
	for c := range v.max {
		v.max[c] = -1
	}
	return v
}

func newHybridState() *hybridState {
	h := &hybridState{}
	for i := 0; i < histRows; i++ {
		h.histN[i%len(countries)]++
		h.histSum[i%len(countries)] += histClicks(i)
	}
	// Preloaded real-time rows count as sent (and acked) before the stream.
	for i := 0; i < preloadRows; i++ {
		h.sentN[i%len(countries)]++
		h.sentSum[i%len(countries)] += histClicks(i)
	}
	return h
}

func countryIndex(c string) int {
	for i, x := range countries {
		if x == c {
			return i
		}
	}
	return -1
}

func (h *hybridState) strayFailure(msg string) {
	h.mu.Lock()
	if h.stray == "" {
		h.stray = msg
	}
	h.mu.Unlock()
}

// produce streams events open-loop: each 5ms tick sends every event due by
// then and flushes; the flush's return is the ack of the tick's events.
// Event i is due at start + i/eventsPerSec, so generator lateness shows in
// the ack and freshness times.
func (h *hybridState) produce(r *runner, stop chan struct{}) {
	p := r.st.ingest
	start := time.Now()
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	var next int64
	var batch []time.Time
	for tick := 0; ; tick++ {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		due := int64(time.Since(start).Seconds() * eventsPerSec)
		ph := r.phaseAt(time.Now())
		for ; next < due; next++ {
			at := start.Add(time.Duration(next) * time.Second / eventsPerSec)
			ev := workload.MakeStreamEvent(r.seed, next, at)
			c := countryIndex(ev.Country)
			h.mu.Lock()
			h.sentN[c]++
			h.sentSum[c] += ev.Clicks
			h.pending[c] = append(h.pending[c], pendingEvent{seq: next, due: at})
			h.mu.Unlock()
			t0 := time.Now()
			err := p.producer.Send(ev.Key, at, []any{streamBase + next, ev.Country, ev.Clicks})
			if ph != nil && ph.traced {
				ph.mu.Lock()
				ph.sendUs = append(ph.sendUs, float64(time.Since(t0).Nanoseconds())/1e3)
				ph.mu.Unlock()
			}
			if err != nil {
				h.strayFailure(fmt.Sprintf("producer send: %v", err))
			}
			batch = append(batch, at)
		}
		if len(batch) > 0 {
			if err := p.producer.Flush(); err != nil {
				h.strayFailure(fmt.Sprintf("producer flush: %v", err))
			}
			acked := time.Now()
			if ph != nil {
				ph.mu.Lock()
				for _, at := range batch {
					if ph.contains(at) {
						ph.ack = append(ph.ack, float64(acked.Sub(at).Nanoseconds())/1e6)
					}
				}
				ph.mu.Unlock()
			}
			batch = batch[:0]
		}
		if ph != nil && tick%10 == 0 {
			if l := p.lag(); l > ph.lagMax {
				ph.mu.Lock()
				ph.lagMax = l
				ph.mu.Unlock()
			}
		}
	}
}

func (h *hybridState) sent() (n, sum [8]int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sentN, h.sentSum
}

// observeRealtime checks one country's real-time row count against the
// client's monotonic lower bound and the sent upper bound.
func (v *seen) observeRealtime(c int, n int64, sentN [8]int64) string {
	if n < v.n[c] {
		return fmt.Sprintf("%s real-time count went backwards: %d -> %d", countries[c], v.n[c], n)
	}
	if n > sentN[c] {
		return fmt.Sprintf("%s real-time count %d exceeds %d events sent", countries[c], n, sentN[c])
	}
	v.n[c] = n
	return ""
}

// check validates a hybrid reply that client v received at t1 and, for
// probes, records freshness into p (nil while warming up): an event's
// freshness is taken at the first probe reply, of either client, that shows
// it. It returns "" for a right answer.
func (h *hybridState) check(st statement, rows [][]any, t1 time.Time, p *phase, v *seen) string {
	sentN, sentSum := h.sent()
	bad := func(format string, args ...any) string {
		return st.Class + ": " + fmt.Sprintf(format, args...)
	}
	switch st.Class {
	case hybridProbe:
		for _, row := range rows {
			c := countryIndex(fmt.Sprint(row[0]))
			n, ok1 := row[1].(int64)
			m, ok2 := row[2].(int64)
			if c < 0 || !ok1 || !ok2 {
				return bad("malformed row %v", row)
			}
			if msg := v.observeRealtime(c, n, sentN); msg != "" {
				return bad("%s", msg)
			}
			if m < v.max[c] {
				return bad("%s newest event went backwards: %d -> %d", countries[c], v.max[c], m)
			}
			v.max[c] = m
			h.mu.Lock()
			q := h.pending[c]
			i := 0
			for ; i < len(q) && streamBase+q[i].seq <= m; i++ {
				if p != nil && p.contains(q[i].due) {
					p.mu.Lock()
					p.fresh = append(p.fresh, float64(t1.Sub(q[i].due).Nanoseconds())/1e6)
					p.mu.Unlock()
				}
			}
			h.pending[c] = q[i:]
			h.mu.Unlock()
		}
	case hybridAll:
		if len(rows) != len(countries) {
			return bad("%d countries, want %d", len(rows), len(countries))
		}
		for _, row := range rows {
			c := countryIndex(fmt.Sprint(row[0]))
			n, ok1 := row[1].(int64)
			s, ok2 := row[2].(int64)
			if c < 0 || !ok1 || !ok2 {
				return bad("malformed row %v", row)
			}
			if msg := v.observeRealtime(c, n-h.histN[c], sentN); msg != "" {
				return bad("%s", msg)
			}
			if rs := s - h.histSum[c]; rs < 0 || rs > sentSum[c] {
				return bad("%s real-time clicks %d outside [0, %d]", countries[c], rs, sentSum[c])
			}
		}
	case hybridSince:
		x := st.Arg
		if len(rows) != 1 {
			return bad("%d rows, want 1", len(rows))
		}
		n, _ := rows[0][0].(int64)
		var lo, hi int64
		for c := range countries {
			lo += v.n[c]
			hi += sentN[c]
		}
		if rt := n - (boundary - x); rt < lo || rt > hi {
			return bad("real-time count %d outside [%d, %d]", rt, lo, hi)
		}
	case hybridHist:
		x := int(st.Arg)
		var want [8]int64
		var seen [8]bool
		for i := 0; i < x; i++ {
			want[i%len(countries)] += histClicks(i)
			seen[i%len(countries)] = true
		}
		var names []string
		for c, ok := range seen {
			if ok {
				names = append(names, countries[c])
			}
		}
		sort.Strings(names)
		if len(rows) != len(names) {
			return bad("%d rows, want %d", len(rows), len(names))
		}
		for i, row := range rows {
			c := countryIndex(fmt.Sprint(row[0]))
			s, ok := row[1].(int64)
			if fmt.Sprint(row[0]) != names[i] || !ok || s != want[c] {
				return bad("row %d = %v, want [%s %d]", i, row, names[i], want[max(c, 0)])
			}
		}
	default:
		return bad("unknown class")
	}
	return ""
}

// quiesce stops ingest, waits until the segment writer has consumed every
// event, and checks that the table then holds exactly the historical rows
// plus the preloaded real-time rows plus every event sent (all of which the
// final flush acked).
func (r *runner) quiesce() string {
	p := r.st.ingest
	if err := p.producer.Flush(); err != nil {
		return fmt.Sprintf("final flush: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for p.lag() > 0 {
		if time.Now().After(deadline) {
			return fmt.Sprintf("segment writer still %d records behind after 30s", p.lag())
		}
		time.Sleep(5 * time.Millisecond)
	}
	sentN, sentSum := r.hy.sent()
	var wantN, wantSum int64 = histRows, 0
	for c := range countries {
		wantN += sentN[c]
		wantSum += r.hy.histSum[c] + sentSum[c]
	}
	res, err := r.client.QueryWithSession(cluster.StatementRequest{Query: "SELECT count(*) AS n, sum(clicks) AS s FROM events", Catalog: r.catalog, Schema: r.schema, User: "quiesce"}, "quiesce", "", "quiesce")
	if err != nil {
		return fmt.Sprintf("final count: %v", err)
	}
	rows, err := res.Rows()
	if err != nil || len(rows) != 1 {
		return fmt.Sprintf("final count: %v rows, %v", len(rows), err)
	}
	if n, _ := rows[0][0].(int64); n != wantN {
		return fmt.Sprintf("final count %d, want %d historical + %d preloaded rows + %d acked events", n, histRows, preloadRows, wantN-histRows-preloadRows)
	}
	if s, _ := rows[0][1].(int64); s != wantSum {
		return fmt.Sprintf("final clicks %d, want %d", s, wantSum)
	}
	return ""
}

// percentile returns the q-quantile (0..1) of xs by nearest rank.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median is the middle value, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}
