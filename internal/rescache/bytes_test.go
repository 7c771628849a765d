package rescache

// Byte-budget eviction tests: entry cost is the encoded body length,
// the summed cost never exceeds the budget after a fill, eviction is
// LRU-ordered, shrinking the budget evicts immediately, and an answer
// larger than the whole budget is refused residency rather than pinned.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"applab/internal/sparql"
	"applab/internal/telemetry"
)

// fillDistinct evaluates nq distinct queries through the cache, each
// answered with a payload of roughly payload bytes.
func fillDistinct(t *testing.T, c *Cache, src *memSource, nq, payload int) []string {
	t.Helper()
	queries := make([]string, nq)
	for i := 0; i < nq; i++ {
		p := fmt.Sprintf("http://ex/p%d", i)
		src.Add(triple("http://ex/s", p, strings.Repeat("x", payload)))
		queries[i] = fmt.Sprintf(`SELECT ?o WHERE { ?s <%s> ?o }`, p)
		if _, st := evalThrough(t, c, src, queries[i]); st != Miss && st != Stale {
			t.Fatalf("query %d: status %v", i, st)
		}
	}
	return queries
}

// TestEntryCostIsBodyLength: an entry costs exactly the length of the
// response body it stores — the bytes Store returns, Lookup serves and
// the endpoint writes — so -cache-bytes bounds what is resident.
func TestEntryCostIsBodyLength(t *testing.T) {
	src := newMemSource()
	src.Add(triple("http://ex/a", "http://ex/p", strings.Repeat("x", 1000)))
	c := New(16, 0)
	q := parseQ(t, qBase)
	_, fill, _ := c.Lookup(q, src)
	res, err := q.Eval(src)
	if err != nil {
		t.Fatal(err)
	}
	stored := fill.Store(res)
	if want := sparql.AppendResultsJSON(nil, res); !bytes.Equal(stored, want) {
		t.Fatalf("Store returned a body other than the encoding:\n%s\nvs\n%s", stored, want)
	}
	if c.Bytes() != int64(len(stored)) {
		t.Fatalf("cost %d, want the body length %d", c.Bytes(), len(stored))
	}
	served, _, st := c.Lookup(q, src)
	if st != Hit || !bytes.Equal(served, stored) {
		t.Fatalf("hit served %v %q, want the stored body", st, served)
	}
	if len(stored) <= 1000 {
		t.Fatalf("cost not payload-proportional: %d bytes for a 1000-byte literal", len(stored))
	}
}

func TestByteBudgetEviction(t *testing.T) {
	src := newMemSource()
	reg := telemetry.NewRegistry()
	c := New(100, 0) // count capacity far above what the byte budget allows
	c.Metrics = reg
	c.SetMaxBytes(2000)

	queries := fillDistinct(t, c, src, 8, 400)
	if c.Bytes() > 2000 {
		t.Fatalf("resident bytes %d exceed the 2000 budget", c.Bytes())
	}
	if c.Len() >= 8 {
		t.Fatalf("no eviction: %d entries resident", c.Len())
	}
	snap := reg.Snapshot()
	if snap.Counters["rescache_evictions_total"] == 0 {
		t.Fatal("evictions not counted")
	}
	if snap.Gauges["rescache_bytes"] != float64(c.Bytes()) {
		t.Fatalf("rescache_bytes gauge %v != %d", snap.Gauges["rescache_bytes"], c.Bytes())
	}
	// LRU order: the oldest query is gone, the newest still hits.
	if _, _, st := c.Lookup(parseQ(t, queries[0]), src); st != Miss {
		t.Fatalf("oldest entry survived a byte eviction: %v", st)
	}
	if _, _, st := c.Lookup(parseQ(t, queries[7]), src); st != Hit {
		t.Fatalf("newest entry evicted: %v", st)
	}
}

func TestByteBudgetShrinkAndOversized(t *testing.T) {
	src := newMemSource()
	c := New(100, 0)
	fillDistinct(t, c, src, 4, 100)
	resident := c.Len()
	if resident != 4 {
		t.Fatalf("setup: %d entries", resident)
	}
	// Shrinking evicts immediately, without waiting for the next fill.
	c.SetMaxBytes(c.Bytes() / 2)
	if c.Len() >= resident || c.Bytes() > c.MaxBytes() {
		t.Fatalf("shrink did not evict: %d entries, %d bytes", c.Len(), c.Bytes())
	}
	// An answer bigger than the whole budget is not pinned: the fill
	// self-evicts and the cache stays within budget.
	src.Add(triple("http://ex/s", "http://ex/huge", strings.Repeat("y", 4096)))
	huge := `SELECT ?o WHERE { ?s <http://ex/huge> ?o }`
	evalThrough(t, c, src, huge)
	if c.Bytes() > c.MaxBytes() {
		t.Fatalf("oversized answer pinned: %d bytes > budget %d", c.Bytes(), c.MaxBytes())
	}
	if _, _, st := c.Lookup(parseQ(t, huge), src); st == Hit {
		t.Fatal("oversized answer resident")
	}
	// Removing the bound restores count-only behaviour.
	c.SetMaxBytes(0)
	evalThrough(t, c, src, huge)
	if _, _, st := c.Lookup(parseQ(t, huge), src); st != Hit {
		t.Fatalf("unbounded cache refused the entry: %v", st)
	}
}
