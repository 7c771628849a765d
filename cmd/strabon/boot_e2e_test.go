package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"applab/internal/segment"
	"applab/internal/strabon"
)

// writeGoldenDataset writes an N-Triples file shaped like the paper's
// LAI case study: observations with values, geometries, and WKT
// literals. Big enough that a full parse-and-index replay is clearly
// measurable, small enough to generate instantly.
func writeGoldenDataset(t *testing.T, path string, nObs int) {
	t.Helper()
	var b strings.Builder
	for i := 0; i < nObs; i++ {
		obs := fmt.Sprintf("http://ex/lai/obs%d", i)
		gnode := fmt.Sprintf("http://ex/lai/geom%d", i)
		fmt.Fprintf(&b, "<%s> <http://ex/lai/lai> \"%d.5\"^^<http://www.w3.org/2001/XMLSchema#double> .\n", obs, i%10)
		fmt.Fprintf(&b, "<%s> <http://www.opengis.net/ont/geosparql#hasGeometry> <%s> .\n", obs, gnode)
		fmt.Fprintf(&b, "<%s> <http://www.opengis.net/ont/geosparql#asWKT> \"POINT (%d %d)\"^^<http://www.opengis.net/ont/geosparql#wktLiteral> .\n",
			gnode, i%100, i/100)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRunDataDirBootLatency is the lazy-boot assertion of this PR: a
// server booting from a populated -data-dir opens segment footers
// instead of re-parsing and re-loading the dataset, so its first
// correct query must arrive in a fraction of the ingest time (on an
// idle machine it is a few milliseconds). The bound is relative to the
// measured ingest with an absolute floor, so a loaded CI machine slows
// both sides instead of flaking the assertion.
func TestRunDataDirBootLatency(t *testing.T) {
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	tmp := t.TempDir()
	nt := filepath.Join(tmp, "golden.nt")
	dataDir := filepath.Join(tmp, "store")
	const nObs = 3000
	writeGoldenDataset(t, nt, nObs)

	// Phase A: durable ingest (parse + WAL + flush). This is the slow
	// path the boot must NOT repeat.
	ingestStart := time.Now()
	if err := run(context.Background(), []string{"-load", nt, "-data-dir", dataDir}, nil); err != nil {
		t.Fatalf("ingest run: %v", err)
	}
	ingestDur := time.Since(ingestStart)

	// Phase B: boot the server from the data dir alone and time the
	// first query end-to-end from process start.
	bootStart := time.Now()
	addrs, cancel, result := startRun(t,
		[]string{"-data-dir", dataDir, "-serve", "127.0.0.1:0"},
		"sparql")
	defer cancel()

	q := url.QueryEscape(`SELECT ?o WHERE { <http://ex/lai/obs7> <http://ex/lai/lai> ?o }`)
	code, body := httpGet(t, "http://"+addrs["sparql"]+"/sparql?query="+q)
	firstQuery := time.Since(bootStart)
	if code != http.StatusOK {
		t.Fatalf("first query status = %d, body %s", code, body)
	}
	var doc struct {
		Results struct {
			Bindings []map[string]struct {
				Value string `json:"value"`
			} `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("bad results JSON: %v", err)
	}
	if len(doc.Results.Bindings) != 1 || doc.Results.Bindings[0]["o"].Value != "7.5" {
		t.Fatalf("first query answered wrong: %s", body)
	}
	// A boot that replays the dataset costs about one ingest; a lazy
	// boot costs O(segment footers). Half the ingest time cleanly
	// separates the two, and the floor keeps fast machines (where the
	// whole ingest is tens of milliseconds) from flaking on scheduler
	// noise.
	limit := ingestDur / 2
	if limit < time.Second {
		limit = time.Second
	}
	if firstQuery > limit {
		t.Errorf("first query after boot took %v, want < %v (ingest took %v; is boot replaying the dataset?)",
			firstQuery, limit, ingestDur)
	}
	t.Logf("ingest %v, boot-to-first-query %v", ingestDur, firstQuery)

	// The full dataset must be there — correct, not just fast.
	qc := url.QueryEscape(`SELECT ?s ?o WHERE { ?s <http://ex/lai/lai> ?o }`)
	code, body = httpGet(t, "http://"+addrs["sparql"]+"/sparql?query="+qc)
	if code != http.StatusOK {
		t.Fatalf("full scan status = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("bad results JSON: %v", err)
	}
	if len(doc.Results.Bindings) != nObs {
		t.Fatalf("full scan rows = %d, want %d", len(doc.Results.Bindings), nObs)
	}

	cancel()
	select {
	case err := <-result:
		if err != nil {
			t.Fatalf("run = %v after shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancellation")
	}
}

// TestRunDataDirIncrementalIngest: two ingest invocations accumulate —
// the incremental path that replaces whole-image rewrites.
func TestRunDataDirIncrementalIngest(t *testing.T) {
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	tmp := t.TempDir()
	dataDir := filepath.Join(tmp, "store")
	nt1 := filepath.Join(tmp, "batch1.nt")
	nt2 := filepath.Join(tmp, "batch2.nt")
	if err := os.WriteFile(nt1, []byte("<http://ex/a> <http://ex/p> \"1\" .\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(nt2, []byte("<http://ex/b> <http://ex/p> \"2\" .\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-load", nt1, "-data-dir", dataDir}, nil); err != nil {
		t.Fatalf("first ingest: %v", err)
	}
	if err := run(context.Background(), []string{"-load", nt2, "-data-dir", dataDir}, nil); err != nil {
		t.Fatalf("second ingest: %v", err)
	}

	addrs, cancel, result := startRun(t,
		[]string{"-data-dir", dataDir, "-serve", "127.0.0.1:0"}, "sparql")
	defer cancel()
	q := url.QueryEscape(`SELECT ?s WHERE { ?s <http://ex/p> ?o }`)
	code, body := httpGet(t, "http://"+addrs["sparql"]+"/sparql?query="+q)
	if code != http.StatusOK {
		t.Fatalf("query status = %d", code)
	}
	var doc struct {
		Results struct {
			Bindings []map[string]any `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Results.Bindings) != 2 {
		t.Fatalf("bindings = %d, want 2 (batches did not accumulate)", len(doc.Results.Bindings))
	}
	cancel()
	<-result
}

// TestRunLoadRejectsBinaryImage: -load reads RDF text only. A binary
// file — here one shaped like the retired "ASTR1" store image, under
// its old .astr name — fails with an error naming the path, and the
// data dir it was meant for stays empty.
func TestRunLoadRejectsBinaryImage(t *testing.T) {
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	tmp := t.TempDir()
	img := filepath.Join(tmp, "store.astr")
	data := []byte("ASTR1")
	data = binary.BigEndian.AppendUint32(data, 1) // one dictionary string
	data = binary.BigEndian.AppendUint32(data, 3)
	data = append(data, "abc"...)
	data = binary.BigEndian.AppendUint64(data, 0) // no triples
	if err := os.WriteFile(img, data, 0o644); err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(tmp, "store")
	err := run(context.Background(), []string{"-load", img, "-data-dir", dataDir}, nil)
	if err == nil {
		t.Fatal("binary -load accepted")
	}
	if !strings.Contains(err.Error(), img) {
		t.Fatalf("error %q does not name %s", err, img)
	}
	st, err := strabon.Open(dataDir, segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if n := st.Len(); n != 0 {
		t.Fatalf("data dir holds %d triples after a rejected load, want 0", n)
	}
}
