package geosparql

import (
	"fmt"
	"sync"
	"testing"

	"applab/internal/geom"
	"applab/internal/rdf"
	"applab/internal/telemetry"
)

// TestGeometryCacheBounded is the churn regression the unbounded
// sync.Map failed: stream far more distinct WKT literals through the
// parser than the cap and check the live entry count stays bounded.
func TestGeometryCacheBounded(t *testing.T) {
	SetGeometryCacheCap(64)
	t.Cleanup(func() { SetGeometryCacheCap(0) })
	for i := 0; i < 10000; i++ {
		w := rdf.NewWKT(fmt.Sprintf("POINT (%d %d)", i%500, i/500))
		if _, err := ParseGeometryTerm(w); err != nil {
			t.Fatal(err)
		}
	}
	entries, bytes := GeometryCacheStats()
	if entries > 64 {
		t.Fatalf("cache holds %d entries, cap 64", entries)
	}
	if entries == 0 || bytes <= 0 {
		t.Fatalf("cache empty after churn (entries=%d bytes=%d)", entries, bytes)
	}
}

// TestGeometryCachePromotion: entries hit in the previous generation
// survive rotation instead of being dropped with their arena.
func TestGeometryCachePromotion(t *testing.T) {
	SetGeometryCacheCap(8) // generations of 4
	t.Cleanup(func() { SetGeometryCacheCap(0) })
	hot := rdf.NewWKT("POINT (1 1)")
	if _, err := ParseGeometryTerm(hot); err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen < 50; gen++ {
		for i := 0; i < 3; i++ {
			w := rdf.NewWKT(fmt.Sprintf("POINT (%d %d)", gen+2, i+2))
			if _, err := ParseGeometryTerm(w); err != nil {
				t.Fatal(err)
			}
		}
		// Touch the hot entry each generation: it must stay resident.
		g, err := ParseGeometryTerm(hot)
		if err != nil {
			t.Fatal(err)
		}
		if g.WKT() != "POINT (1 1)" {
			t.Fatalf("hot entry corrupted: %s", g.WKT())
		}
	}
	if entries, _ := GeometryCacheStats(); entries > 8 {
		t.Fatalf("cache exceeded cap under promotion: %d entries", entries)
	}
}

// TestGeometryCacheConcurrent hammers the cache from many goroutines
// with overlapping keys; run under -race this pins the locking.
func TestGeometryCacheConcurrent(t *testing.T) {
	SetGeometryCacheCap(32)
	t.Cleanup(func() { SetGeometryCacheCap(0) })
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				w := rdf.NewWKT(fmt.Sprintf("POINT (%d 0)", (seed*31+i)%100))
				g, err := ParseGeometryTerm(w)
				if err != nil || g == nil {
					panic(fmt.Sprintf("parse: %v", err))
				}
			}
		}(w)
	}
	wg.Wait()
	if entries, _ := GeometryCacheStats(); entries > 32 {
		t.Fatalf("cache exceeded cap: %d entries", entries)
	}
}

// TestGeometryCacheSemantics: cached geometries behave identically to
// freshly parsed ones, and non-literals / bad WKT still error.
func TestGeometryCacheSemantics(t *testing.T) {
	SetGeometryCacheCap(16)
	t.Cleanup(func() { SetGeometryCacheCap(0) })
	w := rdf.NewWKT("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")
	first, err := ParseGeometryTerm(w)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseGeometryTerm(w)
	if err != nil {
		t.Fatal(err)
	}
	fresh := geom.MustParseWKT(w.Value)
	if first.WKT() != fresh.WKT() || again.WKT() != fresh.WKT() {
		t.Fatalf("cached geometry diverges: %s vs %s", again.WKT(), fresh.WKT())
	}
	if !geom.Intersects(again, geom.NewPoint(2, 2)) {
		t.Fatal("cached polygon lost its interior")
	}
	if _, err := ParseGeometryTerm(rdf.NewIRI("urn:x")); err == nil {
		t.Fatal("non-literal accepted")
	}
	if _, err := ParseGeometryTerm(rdf.NewLiteral("POINT (bad")); err == nil {
		t.Fatal("garbage WKT accepted")
	}
}

// TestArenaBytesGauge: parsing publishes the arena footprint into an
// installed registry, and a registry installed after the cache is warm
// reads the live bytes at once (the cache is process-wide; it must not
// read 0 until the next insertion), also when installed twice.
func TestArenaBytesGauge(t *testing.T) {
	reg := telemetry.NewRegistry()
	SetMetrics(reg)
	SetGeometryCacheCap(16)
	t.Cleanup(func() {
		SetMetrics(nil)
		SetGeometryCacheCap(0)
	})
	if _, err := ParseGeometryTerm(rdf.NewWKT("POINT (3 4)")); err != nil {
		t.Fatal(err)
	}
	if v := reg.Gauge("spatial_arena_bytes").Value(); v <= 0 {
		t.Fatalf("spatial_arena_bytes = %v, want > 0", v)
	}
	_, want := GeometryCacheStats()
	fresh := telemetry.NewRegistry()
	for i := 0; i < 2; i++ {
		SetMetrics(fresh)
		if v := fresh.Gauge("spatial_arena_bytes").Value(); v != float64(want) {
			t.Fatalf("install %d: spatial_arena_bytes = %v, want %d", i, v, want)
		}
	}
}
