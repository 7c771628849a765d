package main

// The closed loop. Each client sends its next request only after the
// previous answer has been read in full and checked; ingest's writer
// does the same with write batches.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"applab/internal/rdf"
	"applab/internal/workload"
)

// sample is one read as the client saw it.
type sample struct {
	at     time.Duration // when it was sent, from the start of the load
	lat    time.Duration
	kind   string
	target int
	qid    int
	aid    int
	fail   string // empty when the request was served
	hit    bool
	bytes  int
}

// writeSample is one ingest write batch: convert a composite, AddAll it.
type writeSample struct {
	at      time.Duration // when the conversion began, from the start of the load
	lat     time.Duration
	k       int
	triples int
	fail    string
}

// loader drives one workload's closed loop against a booted stack and
// files every answer with the verifier.
type loader struct {
	wl     string
	seed   int64
	st     *stack
	in     *inputs
	gen    *generator
	ver    *verifier
	tr     *tracer
	client *http.Client
	// acked is the number of ingest composites acknowledged so far.
	acked atomic.Int64
	// readsDone counts completed load-phase reads; readTick wakes the
	// ingest writer waiting on it.
	readsDone atomic.Int64
	readTick  chan struct{}
}

func newLoader(wl string, st *stack, in *inputs, seed int64, tr *tracer) *loader {
	d := &loader{wl: wl, seed: seed, st: st, in: in, gen: newGenerator(wl, seed, in), ver: newVerifier(), tr: tr,
		client:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		readTick: make(chan struct{}, 1)}
	d.acked.Store(initialComposites)
	return d
}

// get sends one query to a front endpoint and reads the whole body
// into buf.
func (d *loader) get(target int, q string, buf *bytes.Buffer) (int, http.Header, error) {
	buf.Reset()
	resp, err := d.client.Get(d.st.fronts[target].url + "/sparql?query=" + url.QueryEscape(q))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return resp.StatusCode, resp.Header, err
	}
	return resp.StatusCode, resp.Header, nil
}

// resolve returns the query text of a request.
func (d *loader) resolve(req request) string {
	if req.composite {
		return compositeQuery(req, int(d.acked.Load()))
	}
	return req.query
}

// read sends one request and checks its answer.
func (d *loader) read(req request, buf *bytes.Buffer) sample {
	q := d.resolve(req)
	id, t0 := d.tr.begin()
	status, hdr, err := d.get(req.target, q, buf)
	s := sample{lat: d.tr.end(id, 0, "http."+req.kind, t0), kind: req.kind, target: req.target,
		qid: -1, aid: -1, bytes: buf.Len()}
	switch {
	case err != nil:
		s.fail = "transport: " + err.Error()
	case status != http.StatusOK:
		s.fail = fmt.Sprintf("status %d: %.200s", status, buf.String())
	case hdr.Get("X-Applab-Partial") != "":
		s.fail = "partial answer"
	default:
		s.hit = hdr.Get("X-Applab-Cache") == "hit"
		s.qid, s.aid, err = d.ver.check(q, buf.Bytes())
		if err != nil {
			s.fail = "undecodable answer: " + err.Error()
		}
	}
	return s
}

// load runs the closed loop for dur: clients readers, plus ingest's
// writer. It returns once every client has finished its last request.
func (d *loader) load(dur time.Duration, readers int, writer bool) ([]sample, []writeSample, time.Duration) {
	start := time.Now()
	deadline := start.Add(dur)
	per := make([][]sample, readers)
	var writes []writeSample
	var wg sync.WaitGroup
	for c := 0; c < readers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				at := time.Since(start)
				s := d.read(d.gen.draw(), &buf)
				s.at = at
				per[c] = append(per[c], s)
				d.readsDone.Add(1)
				select {
				case d.readTick <- struct{}{}:
				default: // the writer is not waiting or already woken
				}
			}
		}(c)
	}
	if writer {
		wg.Add(1)
		go func() {
			defer wg.Done()
			writes = d.writeLoop(start, deadline)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var reads []sample
	for _, p := range per {
		reads = append(reads, p...)
	}
	return reads, writes, elapsed
}

// heapMB is the Go heap in use after a forced GC.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// readsPerWrite is how many reads the writer lets complete after each
// acknowledged batch before it writes the next one. Fixing the ratio
// fixes how many reads fall between two writes, so the share of reads
// the result cache can answer before the next write invalidates it
// does not depend on how fast the machine happens to be. At 100, the
// reads that wait behind a write (its WAL fsync holds the engine lock)
// or pay the index rebuild after it are about one in a hundred, beyond
// p90: read_tail_ms does not see them. The report prints them on their
// own as the reads that overlapped a write.
const readsPerWrite = 100

// writeLoop converts and adds successive composites until the deadline.
// A composite counts as acknowledged once AddAll returned with no store
// error; readers only ask for acknowledged composites. In a traced run
// an explicit Freeze follows each write, so its cost shows as a span.
func (d *loader) writeLoop(start, deadline time.Time) []writeSample {
	var out []writeSample
	store := d.st.store
	for k := int(d.acked.Load()); time.Now().Before(deadline); k++ {
		ds := compositeDataset(d.in.compVals, k)
		root, t0 := d.tr.begin()
		at := t0.Sub(start)
		var ts []rdf.Triple
		var err error
		d.tr.do("workload.LAIGridToRDF", root, func() { ts, err = workload.LAIGridToRDF(ds, "LAI") })
		if err == nil {
			d.tr.do("strabon.AddAll", root, func() { store.AddAll(ts) })
			err = store.Err()
		}
		w := writeSample{at: at, lat: d.tr.end(root, 0, "write", t0), k: k, triples: len(ts)}
		if err != nil {
			w.fail = err.Error()
			return append(out, w)
		}
		d.acked.Store(int64(k + 1))
		if d.tr.on {
			d.tr.do("strabon.Freeze", 0, func() { _ = store.Freeze() }) // index errors surface in answers
		}
		out = append(out, w)
		if !d.awaitReads(d.readsDone.Load()+readsPerWrite, deadline) {
			break
		}
	}
	return out
}

// awaitReads blocks until n reads have completed or the deadline has
// passed, and reports whether the reads completed.
func (d *loader) awaitReads(n int64, deadline time.Time) bool {
	timeout := time.NewTimer(time.Until(deadline))
	defer timeout.Stop()
	for d.readsDone.Load() < n {
		select {
		case <-d.readTick:
		case <-timeout.C:
			return false
		}
	}
	return true
}
