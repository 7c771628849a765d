package sparql

import (
	"fmt"
	"testing"

	"applab/internal/rdf"
)

// TestRegexCacheBounded: user-supplied patterns cannot grow the cache
// past its cap, and a pattern in steady use survives every generation
// swap without being recompiled.
func TestRegexCacheBounded(t *testing.T) {
	c := newRegexCache(8)
	hot, err := c.compile("^hot$")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := c.compile(fmt.Sprintf("^p%d$", i)); err != nil {
			t.Fatal(err)
		}
		if n := c.len(); n > 8 {
			t.Fatalf("after %d patterns the cache holds %d, cap 8", i+1, n)
		}
		re, ok := c.get("^hot$")
		if !ok || re != hot {
			t.Fatalf("hot pattern lost after %d distinct patterns", i+1)
		}
	}
	if _, ok := c.get("^p0$"); ok {
		t.Fatal("an abandoned pattern outlived two generations")
	}
}

func (c *regexCache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.cur) + len(c.prev)
}

// TestRegexFilterUsesBoundedCache: REGEX filters compile through the
// bounded cache.
func TestRegexFilterUsesBoundedCache(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.NewTriple(rdf.NewIRI("http://ex/a"), rdf.NewIRI("http://ex/name"), rdf.NewLiteral("Athens")))
	res, err := Eval(g, `SELECT ?s WHERE { ?s <http://ex/name> ?n . FILTER(REGEX(?n, "^Ath")) }`)
	if err != nil || len(res.Bindings) != 1 {
		t.Fatalf("regex filter: %v, %d rows", err, len(res.Bindings))
	}
	if _, ok := regexes.get("^Ath"); !ok {
		t.Fatal("REGEX pattern not cached")
	}
}
