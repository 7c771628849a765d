// Command bench is applab's end-to-end request benchmark. For one
// workload and seed it boots the workload's stack in-process, drives
// /sparql over loopback HTTP with a closed loop of clients for a fixed
// time, checks every answer against the seed evaluator, and prints
// every metric by name with its unit. The last line of its output is
// one JSON object: the end-to-end metrics, or with -trace 1 the
// per-layer metrics of a traced run of the same seed.
//
// Run it through run.sh, which builds it first:
//
//	bash bench/run.sh --workload materialized --seed 1 --seconds 10 --trace 0
//
// README.md in this directory describes the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"applab/internal/geosparql"
	"applab/internal/rdf"
	"applab/internal/sparql"
	"applab/internal/strabon"
	"applab/internal/telemetry"
	"applab/internal/workload"
)

// workloadShape is what differs between workloads in how they run.
type workloadShape struct {
	setups  int // set-up repetitions; setup_s is their median
	readers int
	writer  bool
}

var workloads = map[string]workloadShape{
	"materialized": {setups: 7, readers: 2},
	"ingest":       {setups: 9, readers: 1, writer: true},
	"onthefly":     {setups: 25, readers: 1},
	"remote":       {setups: 25, readers: 2},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run, present on every
// workload.
var endToEnd = []metricDef{
	{"read_qps", "req/s"},
	{"read_p50_ms", "ms"},
	{"read_tail_ms", "ms"},
	{"setup_s", "s"},
	{"heap_mb", "MB"},
}

// perLayer are the metrics of the traced run, present on every
// workload; a layer a workload does not reach reads 0.
var perLayer = []metricDef{
	{"endpoint.parse_ms", "ms"},
	{"endpoint.eval_ms", "ms"},
	{"endpoint.encode_ms", "ms"},
	{"endpoint.resp_kb", "KB"},
	{"sparql.parse_ms", "ms"},
	{"sparql.eval_ms", "ms"},
	{"encode.ms", "ms"},
	{"sparql.eval_vs_seed", "ratio"},
	{"sparql.rows_per_result", "count"},
	{"sparql.patterns_per_query", "count"},
	{"sparql.hash_joins", "count"},
	{"sparql.nested_loop_joins", "count"},
	{"sparql.exchange_scans_per_query", "count"},
	{"sparql.spatial_probes_per_query", "count"},
	{"rescache.hit_ratio", "ratio"},
	{"rescache.evictions", "count"},
	{"setup.segment.flushes", "count"},
	{"setup.segment.compactions", "count"},
	{"setup.segment.wal_fsyncs", "count"},
	{"segment.wal_bytes_per_user_byte", "ratio"},
	{"segment.runs", "count"},
	{"store.stored_bytes_per_user_byte", "ratio"},
	{"obda.fetches_per_query", "count"},
	{"opendap.window_hit_ratio", "ratio"},
	{"opendap.server_requests", "count"},
	{"cluster.rpcs_per_query", "count"},
	{"cluster.hedges", "count"},
	{"cluster.replica_errors", "count"},
	{"federation.fanouts_per_query", "count"},
	{"federation.member_requests_per_query", "count"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_kb_per_op", "KB"},
	{"go.gc_cycles", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"plan.mismatches", "count"},
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// Run files stay inside the working directory: stores (removed after
// the run) and the traced run's span files.
const (
	workRoot  = ".bench_build/work"
	traceRoot = ".bench_build/traces"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: materialized, ingest, onthefly or remote")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "bench: need -workload (materialized|ingest|onthefly|remote), -seconds > 0, -trace 0|1\n")
		return 2
	}
	cfg.trace = trace == 1
	rep, err := runWorkload(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", cfg.workload, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runState gathers everything one run measured.
type runState struct {
	cfg    config
	shape  workloadShape
	in     *inputs
	st     *stack
	d      *loader
	setups []time.Duration

	reads   []sample
	writes  []writeSample
	elapsed time.Duration
	steal   float64 // share of the machine's CPU time stolen by its host during the load
	s0, s1  telemetry.Snapshot
	m0, m1  runtime.MemStats
	heapMB  float64
	// hotBytes is the result cache's encoded residency after warm-up.
	hotBytes int64

	storedBytes  int64
	userBytes    int64 // N-Triples bytes of the data set-up loaded
	writtenBytes int64 // N-Triples bytes of acknowledged load-phase writes
	lost         int   // acknowledged composites missing after reopen
	lostDetail   string
	bad          map[[2]int]bool
	plans        []planPrint // the probe queries' plans after the load
	mismatches   int         // probes whose plans differ between the legs
	probeWrong   int         // probes whose compiled and seed answers differ
	overhead     float64
	// base is the untraced leg's outcome in a traced run.
	base          *result
	oracleTime    time.Duration
	failReasons   map[string]int
	distinctGeoms int
	loadedTriples int
}

func runWorkload(cfg config, out io.Writer) (*result, error) {
	shape := workloads[cfg.workload]
	if !cfg.trace {
		rs, err := measure(cfg, newTracer(false), shape.setups)
		if err != nil {
			return nil, err
		}
		res := rs.result()
		rs.print(out, res)
		return res, nil
	}
	// A traced run measures the seed twice, each leg for half the
	// time: an untraced leg, then the traced leg. The plan-identity
	// check compares the two legs' probe plans, and the tracing
	// overhead is the ratio of their median read latencies.
	leg := cfg
	leg.seconds /= 2
	base, err := measure(leg, newTracer(false), 1)
	if err != nil {
		return nil, fmt.Errorf("untraced leg: %w", err)
	}
	rs, err := measure(leg, newTracer(true), shape.setups)
	if err != nil {
		return nil, err
	}
	rs.mismatches = comparePlans(base.plans, rs.plans)
	rs.overhead = ratio(median(rs.readLatencies(nil)), median(base.readLatencies(nil)))
	rs.base = base.result()
	res := rs.result()
	rs.print(out, res)
	vals := map[string]float64{}
	for k, m := range res.Metrics {
		vals[k] = m.Value
	}
	for k, m := range rs.layerExtras() {
		vals[k] = m.Value
	}
	path := filepath.Join(traceRoot, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := rs.d.tr.write(path, vals); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "spans: %s\n", path)
	return res, nil
}

// measure boots the workload setups times, keeps the last stack, warms
// it up, runs the load, sends the probe queries and checks every answer.
// tr decides whether this is the traced leg.
func measure(cfg config, tr *tracer, setups int) (*runState, error) {
	rs := &runState{cfg: cfg, shape: workloads[cfg.workload], failReasons: map[string]int{}}
	wl := cfg.workload
	rs.in = genInputs(wl, cfg.seed)
	workDir := filepath.Join(workRoot, fmt.Sprintf("%s-%d-%d", wl, cfg.seed, os.Getpid()))
	defer os.RemoveAll(workDir)

	for i := 0; i < setups; i++ {
		if rs.st != nil {
			if err := rs.st.close(); err != nil {
				return nil, fmt.Errorf("tear down set-up %d: %w", i, err)
			}
		}
		st, d, err := boot(wl, rs.in, filepath.Join(workDir, fmt.Sprint(i)), tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rs.st = st
		rs.setups = append(rs.setups, d)
	}
	st := rs.st
	defer st.close()
	sparql.SetMetrics(st.reg)
	geosparql.SetMetrics(st.reg)
	defer sparql.SetMetrics(nil)
	defer geosparql.SetMetrics(nil)
	if tr.on && st.store != nil {
		tr.do("strabon.Freeze", 0, func() { _ = st.store.Freeze() }) // index errors surface in answers
	}

	d := newLoader(wl, st, rs.in, cfg.seed, tr)
	rs.d = d
	if err := d.warmUp(); err != nil {
		return nil, err
	}

	rs.hotBytes = st.cache.Bytes()
	rs.heapMB = heapMB()
	rs.s0 = st.reg.Snapshot()
	runtime.ReadMemStats(&rs.m0)
	tot0, steal0 := cpuTicks()
	dur := time.Duration(cfg.seconds * float64(time.Second))
	rs.reads, rs.writes, rs.elapsed = d.load(dur, rs.shape.readers, rs.shape.writer)
	tot1, steal1 := cpuTicks()
	rs.steal = ratio(float64(steal1-steal0), float64(tot1-tot0))
	runtime.ReadMemStats(&rs.m1)
	rs.s1 = st.reg.Snapshot()
	if st.dir != "" {
		n, err := dirBytes(st.dir)
		if err != nil {
			return nil, err
		}
		rs.storedBytes = n
	}

	probes := probeSet(wl, cfg.seed, rs.in)
	var err error
	if rs.plans, err = d.planPrints(probes); err != nil {
		return nil, err
	}
	if tr.on {
		if rs.probeWrong, err = d.probeLayers(probes); err != nil {
			return nil, err
		}
	}
	for _, f := range st.fronts {
		if err := f.close(); err != nil {
			return nil, err
		}
	}
	if err := rs.checkAnswers(); err != nil {
		return nil, err
	}
	if wl == "ingest" {
		if err := rs.checkDurability(tr); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// warmUp lets caches fill and lazy set-up finish before timing: every
// hot-set query once or, for a workload without one, a few requests
// from a separate stream.
func (d *loader) warmUp() error {
	saved := d.tr.on
	d.tr.on = false
	defer func() { d.tr.on = saved }()
	var buf bytes.Buffer
	reqs := d.gen.hot
	if len(reqs) == 0 {
		reqs = probeSet(d.wl, d.seed+1_000_003, d.in)[:4]
	}
	for _, req := range reqs {
		if s := d.read(req, &buf); s.fail != "" {
			return fmt.Errorf("warm-up %s: %s", req.kind, s.fail)
		}
	}
	return nil
}

// checkAnswers builds the oracle store and judges every distinct answer.
func (rs *runState) checkAnswers() error {
	t0 := time.Now()
	defer func() { rs.oracleTime = time.Since(t0) }()
	wl := rs.cfg.workload
	oracle := strabon.New()
	var ts []rdf.Triple
	var err error
	if wl == "onthefly" {
		vg, err := newVirtualGraph(rs.st.dapURL, nil)
		if err != nil {
			return err
		}
		g, err := vg.Snapshot()
		if err != nil {
			return fmt.Errorf("oracle snapshot: %w", err)
		}
		ts = g.Triples()
	} else if ts, err = loadedTriples(wl, rs.in); err != nil {
		return err
	}
	rs.userBytes = ntriplesBytes(ts)
	for _, w := range rs.writes {
		if w.fail != "" {
			continue
		}
		c, err := workload.LAIGridToRDF(compositeDataset(rs.in.compVals, w.k), "LAI")
		if err != nil {
			return err
		}
		rs.writtenBytes += ntriplesBytes(c)
		ts = append(ts, c...)
	}
	oracle.AddAll(ts)
	rs.loadedTriples = oracle.Len()
	if err := oracle.Freeze(); err != nil {
		return fmt.Errorf("oracle index: %w", err)
	}
	rs.distinctGeoms = oracle.GeometryCount()
	bad, err := rs.d.ver.judge(oracle)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	rs.bad = bad
	return nil
}

// checkDurability closes and reopens ingest's store: every acknowledged
// triple must be readable, in total and per composite.
func (rs *runState) checkDurability(tr *tracer) error {
	st := rs.st
	if err := st.store.Close(); err != nil {
		return fmt.Errorf("close before reopen: %w", err)
	}
	var reopened *strabon.Store
	var err error
	tr.do("strabon.Reopen", 0, func() { reopened, err = strabon.Open(st.dir, st.opts) })
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	st.store = reopened
	if got := reopened.Len(); got != rs.loadedTriples {
		rs.lostDetail = fmt.Sprintf("reopened store holds %d triples, want %d", got, rs.loadedTriples)
	}
	hasTime := rdf.NewIRI(rdf.NSTime + "hasTime")
	for _, w := range rs.writes {
		if w.fail != "" {
			continue
		}
		want := w.triples / 5 // five triples per observation
		if got := len(reopened.Match(rdf.Term{}, hasTime, rdf.NewDateTime(compositeTime(w.k)))); got != want {
			rs.lost++
			rs.lostDetail = fmt.Sprintf("composite %d: %d of %d observations readable after reopen", w.k, got, want)
		}
	}
	if rs.lostDetail != "" && rs.lost == 0 {
		rs.lost = 1
	}
	return nil
}

// result tallies correctness and picks the run's metrics.
func (rs *runState) result() *result {
	res := &result{Metrics: map[string]metric{}}
	for _, s := range rs.reads {
		res.Attempted++
		reason := s.fail
		if reason == "" && rs.bad[[2]int{s.qid, s.aid}] {
			reason = "wrong answer (" + s.kind + ")"
		}
		if reason != "" {
			res.Failed++
			rs.failReasons[truncate(reason)]++
		}
	}
	for _, w := range rs.writes {
		res.Attempted++
		if w.fail != "" {
			res.Failed++
			rs.failReasons["write: "+truncate(w.fail)]++
		}
	}
	if rs.lost > 0 {
		res.Failed += rs.lost
		rs.failReasons["lost acknowledged write: "+rs.lostDetail] += rs.lost
	}
	if rs.mismatches > 0 {
		res.Failed += rs.mismatches
		rs.failReasons["traced and untraced legs planned a probe differently"] += rs.mismatches
	}
	if rs.base != nil && rs.base.Failed > 0 {
		res.Attempted += rs.base.Attempted
		res.Failed += rs.base.Failed
		rs.failReasons["untraced leg: failed operations"] += rs.base.Failed
	}
	if rs.probeWrong > 0 {
		res.Failed += rs.probeWrong
		rs.failReasons["probe: compiled and seed evaluation disagree"] += rs.probeWrong
	}
	res.Correct = res.Failed == 0
	src := rs.endToEnd()
	defs := endToEnd
	if rs.cfg.trace {
		src, defs = rs.perLayer(), perLayer
	}
	for _, m := range defs {
		res.Metrics[m.name] = metric{Value: src[m.name], Unit: m.unit}
	}
	return res
}

// truncate keeps failure reasons to one short line.
func truncate(s string) string {
	if len(s) > 80 {
		return s[:80]
	}
	return s
}

// ok reports whether a read was served with the right answer.
func (rs *runState) ok(s sample) bool { return s.fail == "" && !rs.bad[[2]int{s.qid, s.aid}] }

// readLatencies returns the latencies of correctly served reads.
func (rs *runState) readLatencies(keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range rs.reads {
		if rs.ok(s) && (keep == nil || keep(s)) {
			out = append(out, ms(s.lat))
		}
	}
	return out
}

func (rs *runState) endToEnd() map[string]float64 {
	lat := rs.readLatencies(nil)
	_, tailV, _ := tail(lat)
	return map[string]float64{
		"read_qps":     float64(len(lat)) / rs.elapsed.Seconds(),
		"read_p50_ms":  median(lat),
		"read_tail_ms": tailV,
		"setup_s":      median(secondsOf(rs.setups)),
		"heap_mb":      rs.heapMB,
	}
}

// writeStalled returns the latencies of correctly served reads that
// were in flight while a write batch was.
func (rs *runState) writeStalled() []float64 {
	ws := rs.writes // sequential, so sorted by start and disjoint
	return rs.readLatencies(func(s sample) bool {
		i := sort.Search(len(ws), func(i int) bool { return ws[i].at+ws[i].lat > s.at })
		return i < len(ws) && ws[i].at < s.at+s.lat
	})
}

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// snapDelta reads counter, gauge and histogram movement over the load.
type snapDelta struct{ a, b telemetry.Snapshot }

func (d snapDelta) counter(key string) float64 {
	return float64(d.b.Counters[key] - d.a.Counters[key])
}

// family sums a counter over every label set of name.
func (d snapDelta) family(name string) float64 {
	var n int64
	for k, v := range d.b.Counters {
		if k == name || strings.HasPrefix(k, name+"{") {
			n += v - d.a.Counters[k]
		}
	}
	return float64(n)
}

func (d snapDelta) gauge(key string) float64 { return d.b.Gauges[key] - d.a.Gauges[key] }

// hist returns the count and sum a histogram family gained.
func (d snapDelta) hist(name string) (count int64, sum float64) {
	for k, h := range d.b.Histograms {
		if k == name || strings.HasPrefix(k, name+"{") {
			count += h.Count - d.a.Histograms[k].Count
			sum += h.Sum - d.a.Histograms[k].Sum
		}
	}
	return count, sum
}

func (d snapDelta) meanMS(name string) float64 {
	n, sum := d.hist(name)
	return ratio(sum*1000, float64(n))
}

func (rs *runState) perLayer() map[string]float64 {
	dl := snapDelta{rs.s0, rs.s1}
	evals, _ := dl.hist(`endpoint_stage_seconds{stage="eval"}`)
	ev := float64(evals)
	served, clusterReads, fedReads := 0.0, 0.0, 0.0
	var kb []float64
	for _, s := range rs.reads {
		if s.fail != "" {
			continue
		}
		served++
		kb = append(kb, float64(s.bytes)/1024)
		if rs.cfg.workload == "remote" {
			if s.target == targetCluster {
				clusterReads++
			} else {
				fedReads++
			}
		}
	}
	ops := float64(len(rs.reads) + len(rs.writes))
	hits, misses := dl.counter("rescache_hits_total"), dl.counter("rescache_misses_total")
	whits, wmiss := dl.counter("opendap_cache_hits_total"), dl.counter("opendap_cache_misses_total")
	userBytes := float64(rs.userBytes + rs.writtenBytes)
	var walBytes float64
	if rs.st.walBytes != nil {
		walBytes = float64(rs.st.walBytes.Load())
	}
	tr := rs.d.tr
	spanMS := func(name string) float64 { return mean(msValues(tr.durations(name))) }
	return map[string]float64{
		"endpoint.parse_ms":                    dl.meanMS(`endpoint_stage_seconds{stage="parse"}`),
		"endpoint.eval_ms":                     dl.meanMS(`endpoint_stage_seconds{stage="eval"}`),
		"endpoint.encode_ms":                   dl.meanMS(`endpoint_stage_seconds{stage="encode"}`),
		"endpoint.resp_kb":                     mean(kb),
		"sparql.parse_ms":                      spanMS("sparql.Parse"),
		"sparql.eval_ms":                       spanMS("sparql.Eval"),
		"encode.ms":                            spanMS("encode"),
		"sparql.eval_vs_seed":                  ratio(spanMS("sparql.EvalSeed"), spanMS("sparql.Eval")),
		"sparql.rows_per_result":               ratio(dl.counter("sparql_rows_total"), ev),
		"sparql.patterns_per_query":            ratio(dl.counter("sparql_patterns_planned_total"), ev),
		"sparql.hash_joins":                    ratio(dl.counter(`sparql_join_strategy_total{strategy="hash"}`), ev),
		"sparql.nested_loop_joins":             ratio(dl.counter(`sparql_join_strategy_total{strategy="nested_loop"}`), ev),
		"sparql.exchange_scans_per_query":      ratio(dl.family("sparql_exchange_scans_total"), ev),
		"sparql.spatial_probes_per_query":      ratio(dl.counter("spatial_index_probes_total"), ev),
		"rescache.hit_ratio":                   ratio(hits, hits+misses),
		"rescache.evictions":                   dl.counter("rescache_evictions_total"),
		"setup.segment.flushes":                rs.st.setup.Gauges["segment_flushes_total"],
		"setup.segment.compactions":            rs.st.setup.Gauges["segment_compactions_total"],
		"setup.segment.wal_fsyncs":             rs.st.setup.Gauges["segment_wal_fsyncs_total"],
		"segment.wal_bytes_per_user_byte":      ratio(walBytes, userBytes),
		"segment.runs":                         rs.s1.Gauges["segment_segments"],
		"store.stored_bytes_per_user_byte":     ratio(float64(rs.storedBytes), userBytes),
		"obda.fetches_per_query":               ratio(dl.counter("obda_physical_fetches_total"), served),
		"opendap.window_hit_ratio":             ratio(whits, whits+wmiss),
		"opendap.server_requests":              ratio(dl.counter("opendap_server_requests_total"), served),
		"cluster.rpcs_per_query":               ratio(dl.family("cluster_rpcs_total"), clusterReads),
		"cluster.hedges":                       dl.counter("cluster_hedges_total"),
		"cluster.replica_errors":               dl.family("cluster_replica_errors_total"),
		"federation.fanouts_per_query":         ratio(dl.counter("federation_fanouts_total"), fedReads),
		"federation.member_requests_per_query": ratio(dl.family("federation_member_requests_total"), fedReads),
		"go.allocs_per_op":                     ratio(float64(rs.m1.Mallocs-rs.m0.Mallocs), ops),
		"go.alloc_kb_per_op":                   ratio(float64(rs.m1.TotalAlloc-rs.m0.TotalAlloc)/1024, ops),
		"go.gc_cycles":                         float64(rs.m1.NumGC - rs.m0.NumGC),
		"trace.overhead_ratio":                 rs.overhead,
		"plan.mismatches":                      float64(rs.mismatches),
	}
}

// layerExtras are per-layer metrics of layers or operations only some
// workloads reach: ingest's write side, load-phase segment work, and
// the timings of single layers. They go to the human report and the
// span file, not to the result line, whose metrics every workload
// listed in BENCHMARK.json measures.
func (rs *runState) layerExtras() map[string]metric {
	dl := snapDelta{rs.s0, rs.s1}
	tr := rs.d.tr
	spans := func(name string) []float64 { return msValues(tr.durations(name)) }
	hitLat := rs.readLatencies(func(s sample) bool { return s.hit })
	var acked, triples float64
	for _, w := range rs.writes {
		if w.fail == "" {
			acked++
			triples += float64(w.triples)
		}
	}
	addAll, convert := median(spans("setup.strabon.AddAll")), median(spans("setup.workload.LAIGridToRDF"))
	if rs.shape.writer {
		addAll, convert = mean(spans("strabon.AddAll")), mean(spans("workload.LAIGridToRDF"))
	}
	msM := func(v float64) metric { return metric{v, "ms"} }
	out := map[string]metric{
		"rescache.lookup_us":   {1000 * mean(spans("rescache.Lookup")), "us"},
		"rescache.hit_ms":      msM(median(hitLat)),
		"strabon.addall_ms":    msM(addAll),
		"strabon.freeze_ms":    msM(mean(spans("strabon.Freeze"))),
		"strabon.open_ms":      msM(median(append(spans("setup.strabon.Reopen"), spans("strabon.Reopen")...))),
		"convert.ms_per_batch": msM(convert),
		"obda.snapshot_ms":     msM(mean(spans("obda.Snapshot"))),
		"opendap.fetch_ms":     msM(dl.meanMS("opendap_fetch_seconds")),
		"cluster.read_ms":      msM(dl.meanMS("cluster_read_seconds")),
		"federation.member_ms": msM(dl.meanMS("federation_member_seconds")),
		"segment.flushes":      {dl.gauge("segment_flushes_total"), "count"},
		"segment.compactions":  {dl.gauge("segment_compactions_total"), "count"},
		"segment.wal_fsyncs":   {dl.gauge("segment_wal_fsyncs_total"), "count"},
		"write.triples_per_s":  {triples / rs.elapsed.Seconds(), "triples/s"},
		"write.batches":        {acked, "count"},
	}
	return out
}

// print writes the human-readable report: every end-to-end metric
// README.md lists, the workload's input properties and, for a traced
// run, every per-layer metric.
func (rs *runState) print(out io.Writer, res *result) {
	wl := rs.cfg.workload
	fmt.Fprintf(out, "workload %s  seed %d  %.1fs measured  %d readers%s  trace=%v\n",
		wl, rs.cfg.seed, rs.elapsed.Seconds(), rs.shape.readers, map[bool]string{true: " + 1 writer"}[rs.shape.writer], rs.cfg.trace)
	e2e := rs.endToEnd()
	lat := rs.readLatencies(nil)
	pct, _, beyond := tail(lat)
	line := func(name, unit string, v float64, note string) {
		fmt.Fprintf(out, "  %-38s %14.4f %-10s %s\n", name, v, unit, note)
	}
	fmt.Fprintln(out, "end-to-end:")
	line("read_qps", "req/s", e2e["read_qps"], "")
	line("read_p50_ms", "ms", e2e["read_p50_ms"], fmt.Sprintf("n=%d", len(lat)))
	line("read_tail_ms", "ms", e2e["read_tail_ms"], fmt.Sprintf("p%g, %d samples beyond", pct, beyond))
	if rs.shape.writer {
		var wl []float64
		var triples int
		for _, w := range rs.writes {
			if w.fail == "" {
				wl = append(wl, ms(w.lat))
				triples += w.triples
			}
		}
		wp, wt, wb := tail(wl)
		line("write_triples_per_s", "triples/s", float64(triples)/rs.elapsed.Seconds(), fmt.Sprintf("%d batches", len(wl)))
		line("write_p50_ms", "ms", median(wl), "convert + AddAll")
		line("write_tail_ms", "ms", wt, fmt.Sprintf("p%g, %d samples beyond", wp, wb))
		stalled := rs.writeStalled()
		_, st, _ := tail(stalled)
		line("write_stalled_read_p50_ms", "ms", median(stalled), fmt.Sprintf("%d reads in flight during a write; tail %.4f", len(stalled), st))
	}
	line("error_rate", "ratio", ratio(float64(res.Failed), float64(res.Attempted)), fmt.Sprintf("%d of %d", res.Failed, res.Attempted))
	line("setup_s", "s", e2e["setup_s"], fmt.Sprintf("median of %d set-ups", len(rs.setups)))
	line("heap_mb", "MB", e2e["heap_mb"], "after set-up and warm-up, forced GC")
	if rs.st.dir != "" {
		line("stored_bytes_per_user_byte", "ratio", ratio(float64(rs.storedBytes), float64(rs.userBytes+rs.writtenBytes)), "")
	}
	reasons := make([]string, 0, len(rs.failReasons))
	for r, n := range rs.failReasons {
		reasons = append(reasons, fmt.Sprintf("%dx %s", n, r))
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Fprintf(out, "  failure: %s\n", r)
	}
	rs.printKinds(out)
	rs.printInputs(out)
	fmt.Fprintf(out, "  machine: the host stole %.3f of the machine's CPU time during the load (/proc/stat)\n", rs.steal)
	fmt.Fprintf(out, "  oracle: %d distinct queries judged in %.2fs (excluded from setup_s)\n", rs.d.ver.distinct(), rs.oracleTime.Seconds())
	if rs.cfg.trace {
		fmt.Fprintln(out, "per-layer (traced run):")
		pl := rs.perLayer()
		for _, m := range perLayer {
			line(m.name, m.unit, pl[m.name], "")
		}
		lx := rs.layerExtras()
		names := make([]string, 0, len(lx))
		for k := range lx {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			line(k, lx[k].Unit, lx[k].Value, "layer-specific; 0 where the workload does not reach the layer")
		}
		fmt.Fprintf(out, "  plan identity: %d of %d probe queries planned differently by the untraced and traced legs; traced/untraced read p50 %.4f\n",
			rs.mismatches, len(rs.plans), rs.overhead)
	}
}

// printKinds reports each request kind's count and median latency.
func (rs *runState) printKinds(out io.Writer) {
	byKind := map[string][]float64{}
	for _, s := range rs.reads {
		if s.fail == "" {
			k := s.kind
			if rs.cfg.workload == "remote" {
				k += []string{"@cluster", "@federation"}[s.target]
			}
			byKind[k] = append(byKind[k], ms(s.lat))
		}
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprint(out, "by kind (n, p50 ms):")
	for _, k := range kinds {
		fmt.Fprintf(out, "  %s %d %.2f", k, len(byKind[k]), median(byKind[k]))
	}
	var hit, miss []float64
	for _, s := range rs.reads {
		if s.hit {
			hit = append(hit, ms(s.lat))
		} else {
			miss = append(miss, ms(s.lat))
		}
	}
	if len(hit) > 0 {
		fmt.Fprintf(out, "  | hits %d %.2f, misses %d %.2f", len(hit), median(hit), len(miss), median(miss))
	}
	fmt.Fprintln(out)
}

// printInputs reports the input properties the metrics depend on.
func (rs *runState) printInputs(out io.Writer) {
	seen := map[string]bool{}
	repeats, hits, served, cluster := 0, 0, 0, 0
	for _, s := range rs.reads {
		key := fmt.Sprint(s.target, s.qid)
		if s.qid >= 0 && seen[key] {
			repeats++
		}
		seen[key] = true
		if s.fail == "" {
			served++
			if s.hit {
				hits++
			}
		}
		if s.target == targetCluster {
			cluster++
		}
	}
	n := float64(len(rs.reads))
	fmt.Fprintf(out, "inputs:\n  repeated-query share %.3f, result-cache hit share %.3f, %d distinct queries\n",
		ratio(float64(repeats), n), ratio(float64(hits), float64(served)), rs.d.ver.distinct())
	dl := snapDelta{rs.s0, rs.s1}
	whits, wmiss := dl.counter("opendap_cache_hits_total"), dl.counter("opendap_cache_misses_total")
	if whits+wmiss > 0 {
		fmt.Fprintf(out, "  window-cache hit share %.3f\n", ratio(whits, whits+wmiss))
	}
	if rs.cfg.workload == "remote" {
		fmt.Fprintf(out, "  target split: cluster %.3f, federation %.3f\n", ratio(float64(cluster), n), 1-ratio(float64(cluster), n))
	}
	cacheNote := "no result cache"
	if rs.st.cache != nil {
		cacheNote = fmt.Sprintf("result cache %d entries / %d KB (hot set %d queries, %d KB encoded)",
			cacheCapacity, cacheBytes>>10, len(rs.d.gen.hot), rs.hotBytes>>10)
	}
	fmt.Fprintf(out, "  data: %d triples, %d geometries (geometry cache cap %d), %s\n",
		rs.loadedTriples, rs.distinctGeoms, geosparql.DefaultGeometryCacheCap, cacheNote)
}
