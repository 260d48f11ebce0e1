package main

// The deployment under test: generated warehouses, one coordinator with the
// result cache on, numWorkers workers, and a gateway with a sticky route, all
// serving loopback HTTP in this process. Every node mounts its own
// connectors (so every worker owns its chunk, footer and file-list caches)
// over the shared simulated HDFS, metastore and druid store.

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"prestolite/internal/block"
	"prestolite/internal/cluster"
	"prestolite/internal/connector"
	druidconn "prestolite/internal/connectors/druid"
	"prestolite/internal/connectors/hive"
	"prestolite/internal/connectors/hybrid"
	"prestolite/internal/druid"
	"prestolite/internal/fsys"
	"prestolite/internal/gateway"
	"prestolite/internal/hdfs"
	"prestolite/internal/ingest"
	"prestolite/internal/metastore"
	"prestolite/internal/obs"
	"prestolite/internal/tpch"
	"prestolite/internal/types"
	"prestolite/internal/workload"
)

// Deployment constants: identical for every workload and on both sides of
// any comparison. See NOTES.md for how the chunk-cache size relates to each
// workload's working set.
const (
	numWorkers = 3
	// workerPort0 is the first of the workers' fixed loopback ports. Split
	// placement rendezvous-hashes each split with its worker's address, so
	// ports picked by the kernel would place splits differently, and load
	// the workers differently, from run to run. With these three ports the
	// current hash places the files evenly: events_hist 3/2/3, trips 4/4/4
	// (each date 1/2/1, 2/1/1 or 1/1/2), lineitem 4/4/4. They sit below
	// Linux's default ephemeral range.
	workerPort0        = 31798
	chunkCacheBytes    = 512 << 10
	resultCacheEntries = 256
	resultCacheBytes   = 64 << 20
	resultCacheTTL     = time.Hour

	dashFiles       = 12
	dashRowsPerFile = 2000

	histRows  = 40_000 // hybrid historical rows; ts = 0..histRows-1
	histFiles = 8
	boundary  = int64(histRows) // hybrid watermark: hive below, druid at/above
	// preloadRows real-time rows (ts = boundary..streamBase-1) are in druid
	// before the stream starts. The druid side has no retention, so without
	// them each query would scan a real-time side growing from nothing and
	// slow down all through a run; with them the stream adds about a sixth
	// (800 rows in a 30 s run) and the cost per query stays nearly level.
	preloadRows     = 5_000
	streamBase      = boundary + preloadRows // ts of streamed event 0
	eventsPerSec    = 25
	eventPartitions = 4
	topicName       = "events"
)

// tripsConfig sizes the nested Fig 17 warehouse for adhoc_nested.
var tripsConfig = workload.TripsConfig{RowsPerDate: 5000, Dates: 3, FilesPerDate: 4, RowGroupRows: 2048, NeedleCityID: 99999}

// countries is the hybrid table's keyed dimension, the same set the stream
// generator draws from.
var countries = []string{"us", "de", "jp", "br", "in", "fr", "uk", "mx"}

// histCountry and histClicks define historical row i of the hybrid table,
// and preloaded real-time row i too.
func histCountry(i int) string { return countries[i%len(countries)] }
func histClicks(i int) int64   { return int64(i % 50) }

// hooks are the injection points the traced run fills; the zero value is
// the untraced deployment.
type hooks struct {
	coordTransport http.RoundTripper                     // cluster.ClientConfig.Transport of the coordinator
	fs             func(fsys.FileSystem) fsys.FileSystem // wraps the FS handed to hive
	druid          func(druid.Client) druid.Client       // wraps the client handed to the druid connector
	fragmentCache  bool                                  // crash repro only; see NOTES.md
}

// dataset is one workload's generated data.
type dataset struct {
	workload string
	fs       *hdfs.NameNode
	ms       *metastore.Metastore
	store    *druid.Store // hybrid_ingest only
	rt       *druid.Table
	storeObs *obs.Registry
	rows     int64 // hive rows generated
	files    int   // hive files generated
}

func generate(wl string) (*dataset, error) {
	d := &dataset{workload: wl, fs: hdfs.New(hdfs.Config{}), ms: metastore.New()}
	loader := &hive.Loader{MS: d.ms, FS: d.fs}
	switch wl {
	case "dashboard":
		cols := make([]metastore.Column, len(tpch.LineItemColumns))
		for i, c := range tpch.LineItemColumns {
			cols[i] = metastore.Column{Name: c.Name, Type: c.Type}
		}
		var pages []*block.Page
		for f := 0; f < dashFiles; f++ {
			pages = append(pages, tpch.GeneratePage(7+int64(f), dashRowsPerFile))
		}
		if err := loader.CreateTable("tpch", "lineitem", cols, pages); err != nil {
			return nil, err
		}
		d.rows, d.files = dashFiles*dashRowsPerFile, dashFiles
	case "adhoc_nested":
		if _, err := workload.BuildTripsWarehouse(d.ms, d.fs, tripsConfig); err != nil {
			return nil, err
		}
		d.rows = int64(tripsConfig.RowsPerDate*tripsConfig.Dates) + 200 + 1000
		d.files = tripsConfig.FilesPerDate*tripsConfig.Dates + 2
	case "hybrid_ingest":
		cols := []metastore.Column{
			{Name: "ts", Type: types.Bigint},
			{Name: "country", Type: types.Varchar},
			{Name: "clicks", Type: types.Bigint},
		}
		var pages []*block.Page
		per := histRows / histFiles
		for f := 0; f < histFiles; f++ {
			pb := block.NewPageBuilder([]*types.Type{types.Bigint, types.Varchar, types.Bigint})
			for i := f * per; i < (f+1)*per; i++ {
				pb.AppendRow([]any{int64(i), histCountry(i), histClicks(i)})
			}
			pages = append(pages, pb.Build())
		}
		if err := loader.CreateTable("web", "events_hist", cols, pages); err != nil {
			return nil, err
		}
		d.store = druid.NewStore()
		d.storeObs = obs.NewRegistry()
		d.store.RegisterObsMetrics(d.storeObs)
		rt, err := d.store.CreateTable("events_rt", []druid.Column{
			{Name: "ts", Type: types.Bigint},
			{Name: "country", Type: types.Varchar},
			{Name: "clicks", Type: types.Bigint},
		})
		if err != nil {
			return nil, err
		}
		rt.SetSegmentConfig(druid.SegmentConfig{SealRows: 5000, SealAge: time.Second, CompactBelowRows: 2500, CompactBatch: 8})
		pre := make([][]any, preloadRows)
		for i := range pre {
			pre[i] = []any{boundary + int64(i), histCountry(i), histClicks(i)}
		}
		if err := rt.Append(pre, time.Now()); err != nil {
			return nil, err
		}
		d.rt = rt
		d.rows, d.files = histRows, histFiles
	default:
		return nil, fmt.Errorf("unknown workload %q", wl)
	}
	return d, nil
}

// session is the catalog and schema the workload's statements resolve in.
func (d *dataset) session() (catalog, schema string) {
	switch d.workload {
	case "dashboard":
		return "hive", "tpch"
	case "adhoc_nested":
		return "hive", "rawdata"
	}
	return "hybrid", "default"
}

// catalogs builds one node's connector registry. hiveOpts lets the oracle
// mount hive with every cache off.
func (d *dataset) catalogs(h hooks, hiveOpts hive.Options) (*connector.Registry, error) {
	var fs fsys.FileSystem = d.fs
	if h.fs != nil {
		fs = h.fs(fs)
	}
	reg := connector.NewRegistry()
	reg.Register("hive", hive.New("hive", d.ms, fs, hiveOpts))
	if d.store != nil {
		var client druid.Client = &druid.EmbeddedClient{Store: d.store}
		if h.druid != nil {
			client = h.druid(client)
		}
		reg.Register("druid", druidconn.New("druid", client))
		hy := hybrid.New("hybrid", reg)
		if err := hy.AddTable("events", hybrid.TableConfig{
			Historical: connector.HybridPart{Catalog: "hive", Schema: "web", Table: "events_hist"},
			Realtime:   connector.HybridPart{Catalog: "druid", Schema: "default", Table: "events_rt"},
			TimeColumn: "ts",
			Boundary:   boundary,
		}); err != nil {
			return nil, err
		}
		reg.Register("hybrid", hy)
	}
	return reg, nil
}

// ingestPath is the hybrid write path: a durable log (WAL on local disk,
// default FsyncAlways) feeding druid through the segment writer.
type ingestPath struct {
	dir      string
	log      *ingest.Log
	writer   *ingest.SegmentWriter
	producer *ingest.Producer
}

func openIngest(dir string, rt *druid.Table) (*ingestPath, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	log, err := ingest.NewDurableLog(fsys.NewLocal(dir), ingest.WALConfig{})
	if err != nil {
		return nil, err
	}
	topic, err := log.CreateTopic(topicName, eventPartitions)
	if err != nil {
		return nil, err
	}
	p := &ingestPath{dir: dir, log: log}
	p.writer = ingest.NewSegmentWriter(log, topic, rt, ingest.WriterConfig{MaintainEvery: 100 * time.Millisecond})
	p.writer.Start()
	// The benchmark's producer flushes once per tick and treats the flush
	// return as the ack, so the background linger flusher is off.
	p.producer = ingest.NewProducer(topic, ingest.ProducerConfig{BatchRecords: 256, Linger: -1})
	return p, nil
}

// lag is the segment writer's committed-offset lag in records.
func (p *ingestPath) lag() int64 { return p.log.Lag(ingest.DefaultWriterGroup, topicName) }

func (p *ingestPath) close() error {
	err := p.producer.Close()
	p.writer.Stop()
	if cerr := p.log.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(p.dir); err == nil {
		err = rerr
	}
	return err
}

// stack is the running deployment.
type stack struct {
	data    *dataset
	coord   *cluster.Coordinator
	workers []*cluster.Worker
	gw      *gateway.Gateway
	ingest  *ingestPath
}

// start brings the stack up; workDir holds the WAL of hybrid_ingest.
func start(d *dataset, h hooks, workDir string) (*stack, error) {
	s := &stack{data: d}
	opts := hive.Options{ChunkCacheBytes: chunkCacheBytes}
	reg, err := d.catalogs(h, opts)
	if err != nil {
		return nil, err
	}
	s.coord = cluster.NewCoordinatorWithConfig(reg, cluster.ClientConfig{Transport: h.coordTransport})
	s.coord.EnableResultCache(resultCacheEntries, resultCacheBytes, resultCacheTTL)
	for i := 0; i < numWorkers; i++ {
		wreg, err := d.catalogs(h, opts)
		if err != nil {
			s.stop()
			return nil, err
		}
		w := cluster.NewWorker(wreg)
		w.EnableFragmentResultCache = h.fragmentCache
		if err := w.Start(fmt.Sprintf("127.0.0.1:%d", workerPort0+i)); err != nil {
			s.stop()
			return nil, err
		}
		s.workers = append(s.workers, w)
		s.coord.AddWorker(w.Addr())
	}
	if err := s.coord.Start("127.0.0.1:0"); err != nil {
		s.stop()
		return nil, err
	}
	gw, err := gateway.New()
	if err != nil {
		s.stop()
		return nil, err
	}
	s.gw = gw
	if err := gw.AddCluster("c1", s.coord.Addr()); err != nil {
		s.stop()
		return nil, err
	}
	if err := gw.SetRoute("default", gateway.Sticky); err != nil {
		s.stop()
		return nil, err
	}
	if err := gw.Start("127.0.0.1:0"); err != nil {
		s.stop()
		return nil, err
	}
	if d.rt != nil {
		p, err := openIngest(filepath.Join(workDir, "wal"), d.rt)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.ingest = p
	}
	return s, nil
}

// stop tears the stack down; it is safe on a partly started stack.
func (s *stack) stop() error {
	var err error
	if s.ingest != nil {
		err = s.ingest.close()
	}
	if s.gw != nil {
		s.gw.Close()
	}
	if s.coord != nil {
		s.coord.Close()
	}
	for _, w := range s.workers {
		w.Close()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	monitor.CloseIdleConnections()
	return err
}
