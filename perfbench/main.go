// Command perfbench is prestolite's same-host benchmark. It brings up the
// real stack over loopback HTTP (a sticky-routing gateway, one coordinator
// with the result cache on, three workers), drives one workload through the
// path a user's query takes — gateway 307, coordinator /v1/statement, worker
// /v1/task and ?page=N fetches, gob reply decoded by the client — checks
// every answer, and prints its metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload dashboard --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 spends the first half
// of the window untraced and the second half traced, and reports the
// per-layer metrics of the traced half. NOTES.md maps every metric to its
// layer and workload.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

var workloads = []string{"dashboard", "adhoc_nested", "hybrid_ingest"}

// minTailSamples is the fewest samples a p99 is taken over: 10 beyond it.
const minTailSamples = 1000

// setupRounds is how many times a run generates its data and starts the
// stack; setup_s is the median.
const setupRounds = 15

// warmup is the unmeasured time before the first phase: caches fill, the
// result cache holds the dashboard, the ingest stream reaches its rate.
const warmup = 2 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eUnits are the end-to-end metrics reported with --trace 0. The rest of
// the end-to-end figures (failed_pct, the hybrid writer's freshness and ack
// times, sample counts) go to the report line.
var e2eUnits = map[string]string{
	"setup_s": "s", "qps": "1/s", "latency_p50_ms": "ms", "latency_p99_ms": "ms",
	"cpu_ms_per_query": "ms", "live_heap_peak_mb": "MiB",
}

// layerUnits are the per-layer metrics reported with --trace 1.
var layerUnits = map[string]string{
	"gateway.hop_ms": "ms", "cluster.statement_ms": "ms", "cluster.planning_ms": "ms", "cluster.running_ms": "ms",
	"cluster.task_rpcs_per_query": "count", "cluster.fetches_per_query": "count", "cluster.useful_fetch_pct": "%",
	"cluster.fetch_ms_per_query": "ms", "cluster.fetch_bytes_per_query": "bytes", "cluster.retries": "count",
	"sql.parse_us": "us", "planner.analyze_us": "us", "planner.optimize_us": "us", "planner.fragment_us": "us",
	"cache.result_hit_pct": "%", "cache.chunk_hit_pct": "%", "cache.chunk_evictions": "count",
	"cache.footer_hit_pct": "%", "cache.file_list_hit_pct": "%",
	"hdfs.metadata_rpcs_per_query": "count", "hdfs.reads_per_query": "count", "hdfs.read_bytes_per_query": "bytes",
	"hdfs.read_ms_per_query": "ms", "hive.splits_per_query": "count", "hive.split_enum_us": "us",
	"parquet.decode_rows_per_s": "1/s", "block.client_decode_ms": "ms", "block.encode_us_per_page": "us",
	"block.decode_us_per_page": "us", "execution.root_wall_ms": "ms", "execution.worker_wall_ms": "ms",
	"druid.calls_per_query": "count", "druid.exec_ms": "ms", "druid.segments_sealed": "count", "druid.compactions": "count",
	"ingest.send_p99_us": "us", "ingest.lag_records": "count", "ingest.wal_fsyncs_per_s": "1/s",
	"ingest.freshness_p50_ms": "ms", "ingest.freshness_p99_ms": "ms", "ingest.write_ack_p99_ms": "ms",
}

func main() {
	wl := flag.String("workload", "", "one of dashboard, adhoc_nested, hybrid_ingest")
	seed := flag.Int64("seed", 1, "workload seed: statements, literals and events derive from it")
	seconds := flag.Int("seconds", 25, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced half-window")
	root := flag.String("root", ".", "checkout root; run files go under <root>/.bench_build")
	fragCache := flag.Bool("fragment-cache", false, "turn the worker fragment-result cache on (crash repro, see NOTES.md)")
	flag.Parse()
	out, err := run(*wl, *seed, *seconds, *trace == 1, *root, *fragCache)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(wl string, seed int64, seconds int, traced bool, root string, fragCache bool) (*result, error) {
	known := false
	for _, w := range workloads {
		known = known || w == wl
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", wl, strings.Join(workloads, ", "))
	}
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	work, err := filepath.Abs(filepath.Join(root, ".bench_build", fmt.Sprintf("run-%s-%d", wl, os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	var tr *tracer
	var h hooks
	if traced {
		tr = newTracer()
		h = tr.hooks()
	}
	h.fragmentCache = fragCache

	// Set-up: data generation plus stack start, setupRounds times.
	var setups []float64
	var st *stack
	for i := 0; i < setupRounds; i++ {
		// Each set-up starts from a collected heap, not with the garbage of
		// the one before.
		runtime.GC()
		t0 := time.Now()
		d, err := generate(wl)
		if err != nil {
			return nil, err
		}
		s, err := start(d, h, filepath.Join(work, fmt.Sprint(i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRounds-1 {
			if err := s.stop(); err != nil {
				return nil, err
			}
			continue
		}
		st = s
	}
	defer st.stop()

	r := newRunner(st, wl, seed, tr)
	window := time.Duration(seconds) * time.Second
	phases := []*phase{{dur: window}}
	if traced {
		phases = []*phase{{dur: window / 2}, {dur: window - window/2, traced: true}}
	}

	if err := r.run(warmup, phases); err != nil {
		return nil, err
	}

	// Answer checks.
	rep := report{Workload: wl, Seed: seed, Seconds: seconds, Traced: traced}
	var attempted, failed int64
	correct := true
	for _, p := range phases {
		attempted += p.attempted
		failed += p.errors + p.wrong
		if p.firstErr != "" {
			rep.Errors = append(rep.Errors, p.firstErr)
		}
	}
	if r.hy != nil {
		attempted++
		if msg := r.quiesce(); msg != "" {
			failed++
			rep.Errors = append(rep.Errors, "quiesce: "+msg)
		}
		if r.hy.stray != "" {
			correct = false
			rep.Errors = append(rep.Errors, r.hy.stray)
		}
	} else {
		o, err := newOracle(st.data)
		if err != nil {
			return nil, err
		}
		for _, p := range phases {
			wrong, first, err := p.replies.verify(o)
			if err != nil {
				return nil, err
			}
			p.wrong += wrong
			failed += wrong
			if first != "" {
				rep.Errors = append(rep.Errors, first)
			}
		}
		for _, w := range r.warm {
			wrong, first, err := w.verify(o)
			if err != nil {
				return nil, err
			}
			if wrong > 0 {
				correct = false
				rep.Errors = append(rep.Errors, "warm-up: "+first)
			}
		}
	}
	correct = correct && failed == 0

	rep.fill(st, setups, root, len(r.streams))
	for _, p := range phases {
		rep.Phases = append(rep.Phases, endToEnd(p, median(setups)))
		var n []int
		for _, s := range p.slots {
			n = append(n, s.n)
		}
		rep.SliceQueries = append(rep.SliceQueries, n)
	}
	res := &result{Correct: correct, Attempted: max(attempted, 1), Failed: failed, Metrics: map[string]metric{}}
	if !traced {
		for name, unit := range e2eUnits {
			res.Metrics[name] = metric{Value: rep.Phases[0][name], Unit: unit}
		}
	} else {
		layers := layerMetrics(r, phases[1])
		for name, unit := range layerUnits {
			res.Metrics[name] = metric{Value: layers[name], Unit: unit}
		}
		rep.Overhead = map[string]float64{}
		for name, v := range rep.Phases[1] {
			rep.Overhead[name] = v - rep.Phases[0][name]
		}
		spans := tr.snapshot()
		rep.Spans = len(spans)
		rep.QueryInfoMisses = r.ids.misses.Load()
		dir := filepath.Join(root, ".bench_build", "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		rep.TraceFile = filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", wl, seed))
		if err := writeChrome(rep.TraceFile, spans); err != nil {
			return nil, err
		}
	}
	line, err := json.Marshal(map[string]any{"report": rep})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	return res, nil
}

// endToEnd computes one phase's end-to-end figures. Throughput, CPU per
// query, median and p99 latency and peak live heap are each the median over
// the phase's windows: consecutive slices that together hold at least minTailSamples
// queries, so that every percentile rests on that many samples while a
// burst of outside load on the host moves only the windows it falls in.
func endToEnd(p *phase, setup float64) map[string]float64 {
	var qps, cpu, p50, p99, heap []float64
	for _, w := range p.windows {
		qps = append(qps, w.qps)
		cpu = append(cpu, w.cpu)
		p50 = append(p50, w.p50)
		p99 = append(p99, w.p99)
		heap = append(heap, w.heap)
	}
	m := map[string]float64{
		"setup_s":           setup,
		"qps":               median(qps),
		"latency_p50_ms":    median(p50),
		"latency_p99_ms":    median(p99),
		"cpu_ms_per_query":  median(cpu),
		"live_heap_peak_mb": median(heap) / (1 << 20),
		"failed_pct":        100 * ratio(float64(p.errors+p.wrong), float64(p.attempted)),
		"latency_samples":   float64(p.completed - p.late),
		"latency_windows":   float64(len(p.windows)),
		// Latencies that arrived after their slice was summarized; left out.
		"latency_late": float64(p.late),
	}
	if p.fresh != nil || p.ack != nil {
		m["freshness_p50_ms"] = percentile(p.fresh, 0.5)
		m["freshness_p99_ms"] = percentile(p.fresh, 0.99)
		m["freshness_samples"] = float64(len(p.fresh))
		m["write_ack_p99_ms"] = percentile(p.ack, 0.99)
		m["write_ack_samples"] = float64(len(p.ack))
	}
	return m
}

// report is the run's full record, printed as the line before the result.
type report struct {
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Seconds    int                  `json:"seconds"`
	Traced     bool                 `json:"traced"`
	Host       map[string]any       `json:"host"`
	Source     map[string]string    `json:"source"`
	Deployment map[string]any       `json:"deployment"`
	SetupRuns  []float64            `json:"setup_runs_s"`
	Phases     []map[string]float64 `json:"phases"`
	// SliceQueries holds each phase's completed queries per slice.
	SliceQueries [][]int            `json:"slice_queries"`
	Overhead     map[string]float64 `json:"tracing_overhead,omitempty"`
	Spans        int                `json:"spans,omitempty"`
	// QueryInfoMisses counts traced queries whose /v1/query/{id} record was
	// not found; their planning and stage figures are missing.
	QueryInfoMisses int64    `json:"query_info_misses,omitempty"`
	TraceFile       string   `json:"trace_file,omitempty"`
	Errors          []string `json:"errors,omitempty"`
}

func (rep *report) fill(st *stack, setups []float64, root string, sessions int) {
	rep.SetupRuns = setups
	rep.Host = map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
	}
	rep.Source = sourceID(root)
	d := st.data
	dep := map[string]any{
		"hive_rows": d.rows, "hive_files": d.files, "workers": len(st.workers),
		"chunk_cache_bytes_per_node": chunkCacheBytes, "result_cache_entries": resultCacheEntries,
		"result_cache_bytes": resultCacheBytes, "fragment_result_cache": st.workers[0].EnableFragmentResultCache,
		"admission_control": false, "task_concurrency": "worker default (one driver per core)",
		"routing": "gateway sticky route, one cluster", "query_sessions": sessions,
	}
	if d.rt != nil {
		dep["wal_fsync"] = "FsyncAlways"
		dep["events_per_s"] = eventsPerSec
		dep["realtime_preload_rows"] = preloadRows
		dep["log_partitions"] = eventPartitions
	}
	// Resident chunk-cache bytes per node at the end of the run: how the
	// workload's working set compares with the cache.
	var resident []float64
	if cs, err := snapshotCluster(st); err == nil {
		for _, n := range cs.nodes {
			resident = append(resident, n.Gauges["hive.cache.chunk.bytes"])
		}
	}
	dep["chunk_cache_resident_bytes"] = resident
	rep.Deployment = dep
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.Index(line, ":"); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// sourceID identifies the code measured: the git commit when the checkout
// is a repository, and always a digest of every .go file and go.mod under
// root, which also identifies a plain source tree.
func sourceID(root string) map[string]string {
	id := map[string]string{"commit": "none (not a git checkout)"}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			id["commit"] = strings.TrimSpace(string(out))
		}
	}
	var files []string
	filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && strings.HasPrefix(e.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(data))
		h.Write(data)
	}
	id["source_sha256"] = hex.EncodeToString(h.Sum(nil))
	return id
}
