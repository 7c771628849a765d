package endpoint

// Response-body tests: POST bodies are bounded, the encode stage and the
// trace are recorded before the first body byte is written, and a
// result-cache hit costs a constant number of allocations however many
// rows its body holds.

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"applab/internal/core"
	"applab/internal/rescache"
	"applab/internal/sparql"
	"applab/internal/strabon"
	"applab/internal/telemetry"
	"applab/internal/workload"
)

func TestPostBodyBound(t *testing.T) {
	srv := httptest.NewServer(NewHandler(smallGraph(t, 2), nil))
	defer srv.Close()
	pad := func(n int) string { return anyQuery + strings.Repeat(" ", n-len(anyQuery)) }
	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"under", anyQuery, http.StatusOK},
		{"at", pad(maxQueryBytes), http.StatusOK},
		{"over", pad(maxQueryBytes + 1), http.StatusRequestEntityTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/sparql", "application/sparql-query", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("%d-byte body: status %d, want %d", len(tc.body), resp.StatusCode, tc.want)
			}
		})
	}
}

// discardWriter is a ResponseWriter that counts body bytes and, on the
// first Write, runs onWrite — the moment a client could first see the
// answer.
type discardWriter struct {
	header  http.Header
	n       int
	onWrite func()
}

func newDiscardWriter() *discardWriter { return &discardWriter{header: http.Header{}} }

func (d *discardWriter) Header() http.Header { return d.header }
func (d *discardWriter) WriteHeader(int)     {}
func (d *discardWriter) Write(p []byte) (int, error) {
	if d.n == 0 && d.onWrite != nil {
		d.onWrite()
	}
	d.n += len(p)
	return len(p), nil
}

// TestAccountingPrecedesBody: on a miss and on a hit, the encode stage
// histogram and the request's trace are already recorded when the
// first body byte is written, so a client that has read its answer
// always sees exact counters.
func TestAccountingPrecedesBody(t *testing.T) {
	st := strabon.New()
	st.AddAll(smallGraph(t, 3).Triples())
	reg := telemetry.NewRegistry()
	h := NewHandlerOpts(st, reg, Options{Cache: rescache.New(8, 0)})
	req := httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(anyQuery), nil)
	const encode = `endpoint_stage_seconds{stage="encode"}`

	for i, want := range []string{"miss", "hit"} {
		w := newDiscardWriter()
		w.onWrite = func() {
			if got := reg.Snapshot().Histograms[encode].Count; got != int64(i+1) {
				t.Errorf("%s: encode stage count %d at first write, want %d", want, got, i+1)
			}
			if got := len(reg.RecentTraces()); got != i+1 {
				t.Errorf("%s: %d traces recorded at first write, want %d", want, got, i+1)
			}
		}
		h.ServeHTTP(w, req)
		if got := w.header.Get("X-Applab-Cache"); got != want || w.n == 0 {
			t.Fatalf("request %d: cache %q with %d body bytes, want %s", i, got, w.n, want)
		}
	}
}

// listing3Store materializes an nLat x nLon x times LAI grid, the
// product Listing 3 reads.
func listing3Store(t testing.TB, nLat, nLon, times int) *strabon.Store {
	t.Helper()
	opts := workload.DefaultLAIOptions()
	opts.NLat, opts.NLon, opts.Times = nLat, nLon, times
	grid := workload.LAIGrid(opts)
	grid.Name = "lai"
	triples, err := workload.LAIGridToRDF(grid, "LAI")
	if err != nil {
		t.Fatal(err)
	}
	st := strabon.New()
	st.AddAll(triples)
	return st
}

// hitAllocs fills the cache with one Listing 3 miss, then reports the
// allocations of a hit through the handler and the hit's body length.
func hitAllocs(t *testing.T, st *strabon.Store) (allocs float64, bodyLen int) {
	t.Helper()
	h := NewHandlerOpts(st, telemetry.NewRegistry(), Options{Cache: rescache.New(8, 0)})
	req := httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(core.Listing3Query), nil)
	miss := newDiscardWriter()
	h.ServeHTTP(miss, req)
	if got := miss.header.Get("X-Applab-Cache"); got != "miss" {
		t.Fatalf("fill request: cache %q, want miss", got)
	}
	allocs = testing.AllocsPerRun(20, func() {
		w := newDiscardWriter()
		h.ServeHTTP(w, req)
		if w.header.Get("X-Applab-Cache") != "hit" || w.n != miss.n {
			t.Fatalf("hit served %q with %d bytes, want hit with %d", w.header.Get("X-Applab-Cache"), w.n, miss.n)
		}
	})
	return allocs, miss.n
}

// TestHitAllocsIndependentOfRows: a Listing 3 hit hands the cached body
// to the writer, so its allocations (parse, plan key, headers, trace)
// do not grow with the answer.
func TestHitAllocsIndependentOfRows(t *testing.T) {
	small, smallLen := hitAllocs(t, listing3Store(t, 4, 4, 2))
	big, bigLen := hitAllocs(t, listing3Store(t, 16, 16, 4))
	if bigLen < 10*smallLen {
		t.Fatalf("grids too close: %d vs %d body bytes", bigLen, smallLen)
	}
	t.Logf("hit allocs: %.0f for %d bytes, %.0f for %d bytes", small, smallLen, big, bigLen)
	if big > small+2 {
		t.Fatalf("hit allocations grow with the answer: %.0f for %d bytes vs %.0f for %d bytes",
			big, bigLen, small, smallLen)
	}
	if small > 500 {
		t.Fatalf("hit allocates %.0f times, want a small constant", small)
	}
}

// BenchmarkEncodeListing3 compares the map-based reference encoding
// with the streaming encoder on the Listing 3 answer over a 30x30x4
// grid (about 3.4k rows, 1 MB of JSON).
func BenchmarkEncodeListing3(b *testing.B) {
	res, err := listing3Store(b, 30, 30, 4).Query(core.Listing3Query)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			encodeJSON(newDiscardWriter(), ResultsJSON(res))
		}
	})
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = sparql.AppendResultsJSON(nil, res)
		}
	})
}
