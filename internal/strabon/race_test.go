package strabon

// Race stress tests for the store layer. They assert very little about
// results on purpose: their job is to interleave writers with the lazy
// index rebuild and the shard-ownership map under `go test -race`.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"applab/internal/geom"
	"applab/internal/rdf"
)

func TestStoreConcurrentAddAndQuery(t *testing.T) {
	s := New()
	s.AddAll(buildParkData(t, 60))

	from := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	to := from.Add(365 * 24 * time.Hour)
	window := geom.NewRect(-0.5, -0.5, 5.5, 5.5)

	var wg sync.WaitGroup
	// Writers keep dirtying the store so readers race the index rebuild.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				sub := rdf.NewIRI(fmt.Sprintf("%sextra-%d-%d", rdf.NSLAI, w, i))
				s.Add(rdf.NewTriple(sub, rdf.NewIRI(rdf.NSLAI+"lai"),
					rdf.NewDouble(float64(i))))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				switch (r + i) % 5 {
				case 0:
					s.FeaturesIntersecting(window)
				case 1:
					s.ObservationsDuring(geom.EmptyEnvelope(), from, to)
				case 2:
					s.NearestGeometries(geom.Point{X: 1, Y: 1}, 3)
				case 3:
					s.GeometryCount()
				default:
					s.Match(rdf.Term{}, rdf.NewIRI(rdf.NSGeo+"asWKT"), rdf.Term{})
				}
			}
		}(r)
	}
	wg.Wait()

	if err := s.Freeze(); err != nil {
		t.Fatalf("Freeze after stress: %v", err)
	}
	if got := s.GeometryCount(); got != 61 { // 60 obs + 1 park
		t.Errorf("GeometryCount = %d, want 61", got)
	}
}
