package main

// Per-layer metrics of the traced phase. Timings of the client hops, the
// coordinator's worker RPCs, HDFS and druid come from the spans; cache and
// retry counts from /v1/stats deltas; planning/running stamps and stage
// walls from /v1/query/{id}. Parse, plan, split enumeration, Parquet decode
// and the page codec are timed afterwards by calling those layers' public
// functions on the phase's own statements, files and pages.

import (
	"errors"
	"io"
	"time"

	"prestolite/internal/block"
	"prestolite/internal/connectors/hive"
	"prestolite/internal/parquet"
	"prestolite/internal/planner"
	"prestolite/internal/sql"
)

// clusterStats is every node's /v1/stats plus the druid store counters.
type clusterStats struct {
	nodes []statsSnapshot // [0] is the coordinator
	druid map[string]int64
}

func snapshotCluster(st *stack) (clusterStats, error) {
	var cs clusterStats
	addrs := []string{st.coord.Addr()}
	for _, w := range st.workers {
		addrs = append(addrs, w.Addr())
	}
	for _, a := range addrs {
		s, err := fetchStats(a)
		if err != nil {
			return cs, err
		}
		cs.nodes = append(cs.nodes, s)
	}
	if st.data.storeObs != nil {
		cs.druid = st.data.storeObs.Snapshot().Counters
	}
	return cs, nil
}

// gauge sums a gauge's change across every node.
func gaugeDelta(before, after clusterStats, name string) float64 {
	var d float64
	for i := range after.nodes {
		d += after.nodes[i].Gauges[name] - before.nodes[i].Gauges[name]
	}
	return d
}

func hitPct(before, after clusterStats, prefix string) float64 {
	h := gaugeDelta(before, after, prefix+".hits")
	m := gaugeDelta(before, after, prefix+".misses")
	if h+m == 0 {
		return 0
	}
	return 100 * h / (h + m)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// layerMetrics derives every per-layer metric of the traced phase p.
func layerMetrics(r *runner, p *phase) map[string]float64 {
	m := map[string]float64{}
	before, after := p.before, p.after
	queries := float64(p.completed)
	count := map[string]float64{}
	total := map[string]time.Duration{}
	var fetchBytes, readBytes, fetchHits float64
	tStart, tEnd := p.start.Sub(r.tr.origin), p.end.Sub(r.tr.origin)
	for _, s := range r.tr.snapshot() {
		if s.Start < tStart || s.Start >= tEnd {
			continue
		}
		count[s.Name]++
		total[s.Name] += s.dur()
		switch s.Name {
		case "cluster.fetch":
			fetchBytes += float64(s.Bytes)
			if s.Hit {
				fetchHits++
			}
		case "hdfs.read":
			readBytes += float64(s.Bytes)
		}
	}
	mean := func(name string) float64 { return ratio(ms(total[name]), count[name]) }

	m["gateway.hop_ms"] = mean("gateway.hop")
	m["cluster.statement_ms"] = mean("cluster.statement")
	m["cluster.task_rpcs_per_query"] = ratio(count["cluster.task_rpc"], queries)
	m["cluster.fetches_per_query"] = ratio(count["cluster.fetch"], queries)
	m["cluster.useful_fetch_pct"] = 100 * ratio(fetchHits, count["cluster.fetch"])
	m["cluster.fetch_ms_per_query"] = ratio(ms(total["cluster.fetch"]), queries)
	m["cluster.fetch_bytes_per_query"] = ratio(fetchBytes, queries)
	var retries float64
	for _, c := range []string{"task_retries", "rpc_retries", "hedged_fetches"} {
		retries += float64(after.nodes[0].Counters[c] - before.nodes[0].Counters[c])
	}
	m["cluster.retries"] = retries

	var planning, running, rootWall, workerWall, executed float64
	for _, qi := range p.infos {
		if qi.Planning.IsZero() {
			continue
		}
		if qi.FromCache || qi.Running.IsZero() {
			planning += ms(qi.Finished.Sub(qi.Planning))
			continue
		}
		planning += ms(qi.Running.Sub(qi.Planning))
		running += ms(qi.Finished.Sub(qi.Running))
		executed++
		var slowest float64
		for _, stage := range qi.Stages {
			var top float64
			var drivers int
			for _, op := range stage.Operators {
				if w := float64(op.WallNanos) / 1e6; w > top {
					top, drivers = w, op.Drivers
				}
			}
			if stage.FragmentID == 0 {
				rootWall += top
				continue
			}
			if w := top / float64(max(drivers, stage.Tasks, 1)); w > slowest {
				slowest = w
			}
		}
		workerWall += slowest
	}
	m["cluster.planning_ms"] = ratio(planning, float64(len(p.infos)))
	m["cluster.running_ms"] = ratio(running, float64(len(p.infos)))
	m["execution.root_wall_ms"] = ratio(rootWall, executed)
	m["execution.worker_wall_ms"] = ratio(workerWall, executed)

	m["cache.result_hit_pct"] = hitPct(before, after, "coordinator.cache.result")
	m["cache.chunk_hit_pct"] = hitPct(before, after, "hive.cache.chunk")
	m["cache.chunk_evictions"] = gaugeDelta(before, after, "hive.cache.chunk.evictions")
	m["cache.footer_hit_pct"] = hitPct(before, after, "hive.cache.footer")
	m["cache.file_list_hit_pct"] = hitPct(before, after, "hive.cache.file_list")

	m["hdfs.metadata_rpcs_per_query"] = ratio(count["hdfs.list"]+count["hdfs.stat"], queries)
	m["hdfs.reads_per_query"] = ratio(count["hdfs.read"], queries)
	m["hdfs.read_bytes_per_query"] = ratio(readBytes, queries)
	m["hdfs.read_ms_per_query"] = ratio(ms(total["hdfs.read"]), queries)

	m["block.client_decode_ms"] = mean("block.client_decode")

	m["druid.calls_per_query"] = ratio(count["druid.execute"]+count["druid.tables"]+count["druid.schema"], queries)
	m["druid.exec_ms"] = mean("druid.execute")
	m["druid.segments_sealed"] = float64(after.druid["druid_segments_sealed"] - before.druid["druid_segments_sealed"])
	m["druid.compactions"] = float64(after.druid["druid_compactions"] - before.druid["druid_compactions"])

	secs := p.dur.Seconds()
	m["ingest.send_p99_us"] = percentile(p.sendUs, 0.99)
	m["ingest.lag_records"] = float64(p.lagMax)
	m["ingest.wal_fsyncs_per_s"] = float64(p.fsyncs) / secs
	m["ingest.freshness_p50_ms"] = percentile(p.fresh, 0.5)
	m["ingest.freshness_p99_ms"] = percentile(p.fresh, 0.99)
	m["ingest.write_ack_p99_ms"] = percentile(p.ack, 0.99)

	offlineLayers(r, p, m)
	return m
}

// maxTimedStatements bounds the statements replayed through the planner.
const maxTimedStatements = 64

// offlineLayers times parse, analyze, optimize and fragment on the traced
// phase's statements with the coordinator's catalogs; counts the hive splits
// each executed query enumerated; reads each sampled scan's files with the
// public Parquet reader under the scan's pushed projection and predicate;
// and decodes and re-encodes the pages captured during the phase.
func offlineLayers(r *runner, p *phase, m map[string]float64) {
	cats := r.st.coord.Catalogs
	session := &planner.Session{Catalog: r.catalog, Schema: r.schema, User: "layers", Properties: map[string]string{}}
	plans := map[string]*planner.FragmentedPlan{}
	var parse, analyze, optimize, fragment time.Duration
	var timed int
	const reps = 5
	for _, st := range p.sqls {
		if _, ok := plans[st.SQL]; ok {
			continue
		}
		var fp *planner.FragmentedPlan
		n := 1
		if timed < maxTimedStatements {
			n = reps
		}
		for i := 0; i < n; i++ {
			t0 := time.Now()
			q, err := sql.ParseQuery(st.SQL)
			t1 := time.Now()
			if err != nil {
				break
			}
			plan, err := (&planner.Analyzer{Catalogs: cats, Session: session}).Analyze(q)
			t2 := time.Now()
			if err != nil {
				break
			}
			plan = (&planner.Optimizer{Catalogs: cats, Session: session}).Optimize(plan)
			t3 := time.Now()
			fp = (&planner.Fragmenter{}).Fragment(plan)
			t4 := time.Now()
			if n == reps {
				parse += t1.Sub(t0)
				analyze += t2.Sub(t1)
				optimize += t3.Sub(t2)
				fragment += t4.Sub(t3)
			}
		}
		if n == reps && fp != nil {
			timed++
		}
		plans[st.SQL] = fp
	}
	calls := float64(timed * reps)
	m["sql.parse_us"] = ratio(float64(parse.Microseconds()), calls)
	m["planner.analyze_us"] = ratio(float64(analyze.Microseconds()), calls)
	m["planner.optimize_us"] = ratio(float64(optimize.Microseconds()), calls)
	m["planner.fragment_us"] = ratio(float64(fragment.Microseconds()), calls)

	// Hive splits per query, counting only queries that ran tasks.
	splitCount := map[string]int{}
	var enum time.Duration
	var enumCalls int
	for sqlText, fp := range plans {
		if fp == nil {
			continue
		}
		for _, frag := range fp.Sources {
			if frag.Scan == nil || frag.Scan.Catalog != "hive" {
				continue
			}
			conn, err := cats.Get("hive")
			if err != nil {
				continue
			}
			t0 := time.Now()
			splits, err := conn.SplitManager().Splits(frag.Scan.Handle)
			enum += time.Since(t0)
			enumCalls++
			if err == nil {
				splitCount[sqlText] += len(splits)
			}
		}
	}
	var splits float64
	for i, st := range p.sqls {
		if i < len(p.infos) && !p.infos[i].FromCache {
			splits += float64(splitCount[st.SQL])
		}
	}
	m["hive.splits_per_query"] = ratio(splits, float64(len(p.sqls)))
	m["hive.split_enum_us"] = ratio(float64(enum.Microseconds()), float64(enumCalls))

	m["parquet.decode_rows_per_s"] = parquetRate(r, plans)

	var dec, enc time.Duration
	var pages int
	for _, data := range r.tr.pages {
		t0 := time.Now()
		page, err := block.DecodePage(data)
		t1 := time.Now()
		if err != nil {
			continue
		}
		if _, err := block.EncodePage(page); err != nil {
			continue
		}
		dec += t1.Sub(t0)
		enc += time.Since(t1)
		pages++
	}
	m["block.decode_us_per_page"] = ratio(float64(dec.Nanoseconds())/1e3, float64(pages))
	m["block.encode_us_per_page"] = ratio(float64(enc.Nanoseconds())/1e3, float64(pages))
}

// parquetBudget bounds the time spent re-reading files for the decode rate.
const parquetBudget = 1500 * time.Millisecond

// parquetRate reads every hive split of the sampled plans with the public
// reader, all reader optimizations on, projecting the scan's pushed columns
// (nested paths included) under its pushed predicate, and returns rows
// decoded per second with lazy columns forced.
func parquetRate(r *runner, plans map[string]*planner.FragmentedPlan) float64 {
	var rows int64
	var spent time.Duration
	for _, fp := range plans {
		if fp == nil || spent > parquetBudget {
			continue
		}
		for _, frag := range fp.Sources {
			h, ok := frag.Scan.Handle.(*hive.TableHandle)
			if !ok {
				continue
			}
			cols := scanColumns(r, h)
			if len(cols) == 0 {
				continue
			}
			conn, err := r.st.coord.Catalogs.Get("hive")
			if err != nil {
				continue
			}
			splits, err := conn.SplitManager().Splits(h)
			if err != nil {
				continue
			}
			for _, s := range splits {
				sp, ok := s.(*hive.Split)
				if !ok {
					continue
				}
				n, d, err := readSplit(r, sp.Path, cols, h.DataPreds)
				if err != nil {
					continue
				}
				rows += n
				spent += d
			}
		}
	}
	return ratio(float64(rows), spent.Seconds())
}

// scanColumns lists the file columns a hive scan reads: its nested paths or
// projected columns, partition keys excluded.
func scanColumns(r *runner, h *hive.TableHandle) []string {
	t, err := r.st.data.ms.GetTable(h.Schema, h.Table)
	if err != nil {
		return nil
	}
	part := map[string]bool{}
	for _, k := range t.PartitionKeys {
		part[k] = true
	}
	var cols []string
	switch {
	case h.NestedPaths != nil:
		for _, p := range h.NestedPaths {
			if !part[p] {
				cols = append(cols, p)
			}
		}
	case h.Projection != nil:
		for _, ord := range h.Projection {
			if ord < len(t.Columns) {
				cols = append(cols, t.Columns[ord].Name)
			}
		}
	default:
		for _, c := range t.Columns {
			cols = append(cols, c.Name)
		}
	}
	return cols
}

func readSplit(r *runner, path string, cols []string, preds []parquet.ColumnPredicate) (int64, time.Duration, error) {
	f, err := r.st.data.fs.Open(path)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	rd, err := parquet.NewReader(f, parquet.AllOptimizations(cols, preds))
	if err != nil {
		f.Close()
		return 0, 0, err
	}
	defer rd.Close()
	var rows int64
	for {
		page, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, 0, err
		}
		for _, b := range page.Blocks {
			if lb, ok := b.(*block.LazyBlock); ok {
				lb.Load()
			}
		}
		rows += int64(page.Count())
	}
	return rows, time.Since(t0), nil
}
