package main

// Workload stacks. Each boot function performs the program's own
// set-up — conversion, ingest, flush, reopen, replication, server start
// — and nothing else: input generation happens before it and the
// oracle after the run, so neither counts in setup_s.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"applab/internal/cluster"
	"applab/internal/core"
	"applab/internal/endpoint"
	"applab/internal/federation"
	"applab/internal/madis"
	"applab/internal/netcdf"
	"applab/internal/obda"
	"applab/internal/opendap"
	"applab/internal/rdf"
	"applab/internal/rescache"
	"applab/internal/segment"
	"applab/internal/sparql"
	"applab/internal/strabon"
	"applab/internal/telemetry"
	"applab/internal/workload"
)

// server is one loopback HTTP server owned by a stack.
type server struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{url: "http://" + ln.Addr().String(), srv: endpoint.NewServer(h), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return s, nil
}

// close stops the server and waits for its serve goroutine to exit.
func (s *server) close() error {
	err := s.srv.Close()
	<-s.done
	return err
}

// stack is one booted workload.
type stack struct {
	reg *telemetry.Registry
	// fronts are the /sparql endpoints requests target, srcs the
	// sources behind them (the traced run probes these directly).
	fronts []*server
	srcs   []sparql.Source
	cache  *rescache.Cache
	// store is the disk-backed store of materialized and ingest.
	store *strabon.Store
	dir   string
	opts  segment.Options
	// walBytes counts bytes the store's WAL wrote (a pass-through sink
	// installed through segment.Options.WrapWAL).
	walBytes *atomic.Int64
	// setup holds the segment counters of the store set-up wrote
	// through, read just before set-up closed it.
	setup   telemetry.Snapshot
	vg      *obda.VirtualGraph
	dapURL  string // onthefly's OPeNDAP server
	closers []func() error
}

func (s *stack) onClose(f func() error) { s.closers = append(s.closers, f) }

// close releases everything in reverse order of acquisition.
func (s *stack) close() error {
	var first error
	for i := len(s.closers) - 1; i >= 0; i-- {
		if err := s.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	s.closers = nil
	return first
}

func (s *stack) addFront(h http.Handler, src sparql.Source) error {
	f, err := serve(h)
	if err != nil {
		return err
	}
	s.onClose(f.close)
	s.fronts = append(s.fronts, f)
	s.srcs = append(s.srcs, src)
	return nil
}

// countingSink passes WAL writes through and counts their bytes.
type countingSink struct {
	segment.Sink
	n *atomic.Int64
}

func (c countingSink) Write(p []byte) (int, error) {
	n, err := c.Sink.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func ntriplesBytes(ts []rdf.Triple) int64 {
	var n int64
	for _, t := range ts {
		n += int64(len(t.String())) + 1
	}
	return n
}

// featureSources are the feature layer of materialized and ingest, one
// slice per source: the case-study ontologies, OSM parks, CORINE land
// cover and GADM.
func featureSources(in *inputs, tr *tracer) [][]rdf.Triple {
	var out [][]rdf.Triple
	tr.do("setup.workload.FeaturesToRDF", 0, func() {
		out = [][]rdf.Triple{
			core.AllOntologies(),
			workload.FeaturesToRDF(rdf.NSOSM, rdf.NSOSM+"poiType", in.osm),
			workload.FeaturesToRDF(rdf.NSCLC, rdf.NSCLC+"hasCorineValue", in.clc),
			workload.FeaturesToRDF(rdf.NSGADM, rdf.NSGADM+"hasType", in.gadm),
		}
	})
	return out
}

func convertGrid(ds *netcdf.Dataset, tr *tracer) ([]rdf.Triple, error) {
	var ts []rdf.Triple
	var err error
	tr.do("setup.workload.LAIGridToRDF", 0, func() { ts, err = workload.LAIGridToRDF(ds, "LAI") })
	if err != nil {
		return nil, fmt.Errorf("convert %s: %w", ds.Name, err)
	}
	return ts, nil
}

// loadedTriples is the data a workload's set-up loads, converted again
// for the oracle after the run.
func loadedTriples(wl string, in *inputs) ([]rdf.Triple, error) {
	off := &tracer{}
	if wl != "remote" {
		sources, err := storeSources(wl, in, off)
		var ts []rdf.Triple
		for _, src := range sources {
			ts = append(ts, src...)
		}
		return ts, err
	}
	lai, err := convertGrid(in.lai, off)
	if err != nil {
		return nil, err
	}
	return append(lai, workload.FeaturesToRDF(rdf.NSOSM, rdf.NSOSM+"poiType", in.osm)...), nil
}

// bootStore is the materialized set-up: convert each source, ingest it
// into a disk-backed store and flush it, then close and reopen the
// store and serve it behind the result cache. A flush per source gives
// the store more runs than the engine's compaction threshold, so
// set-up compacts. ingest boots the same way with its first composites.
func bootStore(wl string, in *inputs, dir string, tr *tracer) (*stack, error) {
	s := &stack{reg: telemetry.NewRegistry(), dir: dir, walBytes: &atomic.Int64{}}
	s.opts = segment.Options{WrapWAL: func(w segment.Sink) segment.Sink { return countingSink{w, s.walBytes} }}
	sources, err := storeSources(wl, in, tr)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s.onClose(func() error { return os.RemoveAll(dir) })
	st, err := openStore("setup.strabon.Open", dir, s.opts, tr)
	if err != nil {
		return nil, s.fail(err)
	}
	setupReg := telemetry.NewRegistry()
	st.RegisterMetrics(setupReg)
	for _, ts := range sources {
		tr.do("setup.strabon.AddAll", 0, func() { st.AddAll(ts) })
		if err := st.Err(); err != nil {
			_ = st.Close() // the write error is what gets reported
			return nil, s.fail(fmt.Errorf("ingest: %w", err))
		}
		if err := st.Flush(); err != nil {
			_ = st.Close() // the flush error is what gets reported
			return nil, s.fail(fmt.Errorf("flush: %w", err))
		}
	}
	s.setup = setupReg.Snapshot()
	if err := st.Close(); err != nil {
		return nil, s.fail(fmt.Errorf("close: %w", err))
	}
	if st, err = openStore("setup.strabon.Reopen", dir, s.opts, tr); err != nil {
		return nil, s.fail(err)
	}
	s.store = st
	s.onClose(func() error { return s.store.Close() })
	st.RegisterMetrics(s.reg)
	s.cache = rescache.New(cacheCapacity, 0)
	s.cache.SetMaxBytes(cacheBytes)
	s.cache.Metrics = s.reg
	if err := s.addFront(endpoint.NewHandlerOpts(st, s.reg, endpoint.Options{Cache: s.cache}), st); err != nil {
		return nil, s.fail(err)
	}
	return s, nil
}

// storeSources converts the sources a store workload loads, one slice
// per source: the feature layer, then the LAI product (materialized) or
// the first composites (ingest).
func storeSources(wl string, in *inputs, tr *tracer) ([][]rdf.Triple, error) {
	sources := featureSources(in, tr)
	if wl == "materialized" {
		lai, err := convertGrid(in.lai, tr)
		if err != nil {
			return nil, err
		}
		return append(sources, lai), nil
	}
	for k := 0; k < initialComposites; k++ {
		c, err := convertGrid(compositeDataset(in.compVals, k), tr)
		if err != nil {
			return nil, err
		}
		sources = append(sources, c)
	}
	return sources, nil
}

func openStore(name, dir string, opts segment.Options, tr *tracer) (*strabon.Store, error) {
	var st *strabon.Store
	var err error
	tr.do(name, 0, func() { st, err = strabon.Open(dir, opts) })
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	return st, nil
}

// fail closes what a half-booted stack acquired and returns err.
func (s *stack) fail(err error) error {
	_ = s.close() // the boot error is what gets reported
	return err
}

// ndviMapping maps onthefly's second product with no cache window, so
// every evaluation fetches it from the OPeNDAP server.
const ndviMapping = `
mappingId	ndvi_mapping
target		lai:ndvi/{id} lai:ndvi {NDVI}^^xsd:float ;
			time:hasTime {ts}^^xsd:dateTime .
			lai:ndvi/{id} geo:hasGeometry _:n .
			_:n geo:asWKT {loc}^^geo:wktLiteral .
source		SELECT id, NDVI , ts, loc
			FROM (ordered opendap url:ndvi/NDVI/)
			WHERE NDVI > 0
`

// bootOnTheFly is the right-hand workflow: a loopback OPeNDAP server,
// the MadIS opendap adapter and a virtual graph over Listing 2 plus the
// unwindowed NDVI mapping. The first snapshot, which fills the Listing
// 2 window, is part of set-up.
func bootOnTheFly(in *inputs, tr *tracer) (*stack, error) {
	s := &stack{reg: telemetry.NewRegistry()}
	dap := opendap.NewServer()
	dap.Metrics = s.reg
	dap.Publish(in.lai)
	dap.Publish(in.ndvi)
	dapSrv, err := serve(dap)
	if err != nil {
		return nil, err
	}
	s.onClose(dapSrv.close)
	vg, err := newVirtualGraph(dapSrv.url, s.reg)
	if err != nil {
		return nil, s.fail(err)
	}
	s.vg, s.dapURL = vg, dapSrv.url
	tr.do("setup.obda.Snapshot", 0, func() { _, err = vg.Snapshot() })
	if err != nil {
		return nil, s.fail(fmt.Errorf("first snapshot: %w", err))
	}
	if err := s.addFront(endpoint.NewHandlerOpts(vg, s.reg, endpoint.Options{}), vg); err != nil {
		return nil, s.fail(err)
	}
	return s, nil
}

func newVirtualGraph(dapURL string, reg *telemetry.Registry) (*obda.VirtualGraph, error) {
	client := opendap.NewClient(dapURL)
	client.Metrics = reg
	adapter := obda.NewOpendapAdapter(client)
	adapter.Metrics = reg
	db := madis.NewDB()
	adapter.Register(db)
	maps, err := obda.ParseMappings(core.Listing2Mapping + ndviMapping)
	if err != nil {
		return nil, fmt.Errorf("mappings: %w", err)
	}
	return obda.NewVirtualGraph(db, maps), nil
}

// bootRemote builds both remote targets over the same data: a 3-node,
// RF-2 cluster on an in-process MemNetwork, and a federation of a local
// store (the LAI product) with a member behind a loopback endpoint (the
// parks).
func bootRemote(in *inputs, tr *tracer) (*stack, error) {
	s := &stack{reg: telemetry.NewRegistry()}
	lai, err := convertGrid(in.lai, tr)
	if err != nil {
		return nil, err
	}
	var parks []rdf.Triple
	tr.do("setup.workload.FeaturesToRDF", 0, func() {
		parks = workload.FeaturesToRDF(rdf.NSOSM, rdf.NSOSM+"poiType", in.osm)
	})
	all := append(append([]rdf.Triple(nil), lai...), parks...)

	net := cluster.NewMemNetwork()
	for _, id := range []string{"n1", "n2", "n3"} {
		net.AddNode(cluster.NewNode(id))
	}
	coord, err := cluster.NewCoordinator(cluster.Config{
		Groups:    [][]string{{"n1", "n2"}, {"n2", "n3"}, {"n3", "n1"}},
		Transport: net,
		Metrics:   s.reg,
	})
	if err != nil {
		return nil, err
	}
	var applied []rdf.Triple
	tr.do("setup.cluster.AddAll", 0, func() { applied, err = coord.AddAll(context.Background(), all) })
	if err != nil || len(applied) != len(all) {
		return nil, fmt.Errorf("cluster replication: %d/%d applied: %v", len(applied), len(all), err)
	}

	local, member := strabon.New(), strabon.New()
	tr.do("setup.strabon.AddAll", 0, func() { local.AddAll(lai) })
	tr.do("setup.strabon.AddAll", 0, func() { member.AddAll(parks) })
	// The member endpoint reports into its own registry, so the front
	// endpoints' stage histograms hold front requests only.
	memberSrv, err := serve(endpoint.NewHandler(member, telemetry.NewRegistry()))
	if err != nil {
		return nil, err
	}
	s.onClose(memberSrv.close)
	fed := federation.New(federation.Member{Name: "local", Source: local})
	fed.Metrics = s.reg
	fed.AddMember(federation.Member{Name: "remote1", Source: endpoint.NewRemoteSource(memberSrv.url)})

	if err := s.addFront(endpoint.NewHandlerOpts(coord, s.reg, endpoint.Options{}), coord); err != nil {
		return nil, s.fail(err)
	}
	if err := s.addFront(endpoint.NewHandlerOpts(fed, s.reg, endpoint.Options{}), fed); err != nil {
		return nil, s.fail(err)
	}
	return s, nil
}

// boot runs one workload's set-up and returns the stack and the
// set-up's wall time.
func boot(wl string, in *inputs, dir string, tr *tracer) (*stack, time.Duration, error) {
	t0 := time.Now()
	var s *stack
	var err error
	switch wl {
	case "materialized", "ingest":
		s, err = bootStore(wl, in, dir, tr)
	case "onthefly":
		s, err = bootOnTheFly(in, tr)
	case "remote":
		s, err = bootRemote(in, tr)
	default:
		err = fmt.Errorf("unknown workload %q", wl)
	}
	return s, time.Since(t0), err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
