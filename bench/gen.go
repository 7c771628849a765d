package main

// Input generation. Everything the program receives — grids, features,
// queries and write batches — is a pure function of the seed, so the
// same seed replays the same request and write sequence. Which client
// sends which request depends on timing; the sequence does not.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"applab/internal/core"
	"applab/internal/geom"
	"applab/internal/netcdf"
	"applab/internal/rdf"
	"applab/internal/workload"
)

// rng is splitmix64: tiny, allocation-free and identical on every
// platform, so a seed names one input sequence everywhere.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ stream*0xBF58476D1CE4E5B9}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// zipf samples ranks 0..n-1 with P(rank k) proportional to 1/(k+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) sample(r *rng) int {
	u := r.float()
	return sort.SearchFloat64s(z.cdf, u)
}

// request is one read. For ingest's composite reads the query names a
// composite only when it is sent (frac picks among the composites
// acknowledged by then), so query is empty and composite is set.
type request struct {
	target    int // index into the stack's front endpoints
	kind      string
	query     string
	composite bool
	frac      float64       // composite selector in [0,1)
	thresh    float64       // composite value filter; 0 means none
	box       geom.Envelope // composite viewport; empty means none
}

// Product and feature sizes. The materialized product is the Listing 3
// grid (30x30x4, about 3.4k observations and 1 MB of JSON); remote runs
// Listing 3 over a smaller one because every binding there is an RPC.
const (
	matLat, matLon, matTimes = 30, 30, 4
	remLat, remLon, remTimes = 10, 10, 2
	flyLat, flyLon, flyTimes = 20, 20, 2
	ndviLat, ndviLon, ndviT  = 12, 12, 2
	compLat, compLon         = 8, 8
	initialComposites        = 2
	osmParks, clcPatches     = 120, 200
	gadmRows, gadmCols       = 4, 5
	remoteParks              = 40
)

// Mix shape: the hot set (about 3 MB encoded) fits the result cache,
// the tail does not. The cache is bounded by entries and by encoded
// bytes; the byte bound is the one the tail reaches.
const (
	cacheCapacity = 256
	cacheBytes    = 6 << 20
	hotShare      = 0.8
	zipfS         = 1.0
)

var productStart = time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)

// inputs holds one workload's generated data.
type inputs struct {
	lai  *netcdf.Dataset // main LAI product
	ndvi *netcdf.Dataset // onthefly's second, unwindowed product
	osm  []workload.Feature
	clc  []workload.Feature
	gadm []workload.Feature
	// compVals holds the value layers ingest's composites cycle through.
	compVals *netcdf.Dataset
	// Sorted positive values of lai, ndvi and compVals, for thresholds.
	laiVals, ndviVals, compSorted []float64
}

func laiOptions(name, varName string, nlat, nlon, times int, seed int64) workload.LAIGridOptions {
	o := workload.DefaultLAIOptions()
	o.Name, o.VarName = name, varName
	o.NLat, o.NLon, o.Times = nlat, nlon, times
	o.Start = productStart
	o.Seed = seed
	return o
}

func genInputs(wl string, seed int64) *inputs {
	in := &inputs{}
	vec := func(n int, stream int64) workload.VectorOptions {
		return workload.VectorOptions{Extent: workload.ParisExtent, N: n, Seed: seed*31 + stream}
	}
	switch wl {
	case "materialized", "ingest":
		if wl == "materialized" {
			in.lai = workload.LAIGrid(laiOptions("lai", "LAI", matLat, matLon, matTimes, seed))
		} else {
			in.compVals = workload.LAIGrid(laiOptions("lai", "LAI", compLat, compLon, 36, seed))
		}
		in.osm = workload.OSMParks(vec(osmParks, 1))
		in.clc = workload.CorineLandCover(vec(clcPatches, 2))
		in.gadm = workload.GADMAreas(workload.ParisExtent, gadmRows, gadmCols)
	case "onthefly":
		in.lai = workload.LAIGrid(laiOptions("lai", "LAI", flyLat, flyLon, flyTimes, seed))
		o := laiOptions("ndvi", "NDVI", ndviLat, ndviLon, ndviT, seed+7)
		o.Extent = geom.Envelope{MinX: 2.25, MinY: 48.83, MaxX: 2.44, MaxY: 48.89}
		in.ndvi = workload.LAIGrid(o)
		in.ndviVals = positiveValues(in.ndvi, "NDVI")
	case "remote":
		in.lai = workload.LAIGrid(laiOptions("lai", "LAI", remLat, remLon, remTimes, seed))
		in.osm = workload.OSMParks(vec(remoteParks, 1))
	}
	if in.lai != nil {
		in.laiVals = positiveValues(in.lai, "LAI")
	}
	if in.compVals != nil {
		in.compSorted = positiveValues(in.compVals, "LAI")
	}
	return in
}

// compositeTime is the acquisition instant of ingest composite k.
func compositeTime(k int) time.Time { return productStart.AddDate(0, 0, 10*k) }

// compositeDataset builds ingest composite k as a CF grid whose time
// axis runs 0..k with only step k populated: the converter names
// observations by time index, so composite k gets its own subjects
// (lai:obs/k/y/x) while earlier steps are skipped by its LAI > 0 filter.
func compositeDataset(vals *netcdf.Dataset, k int) *netcdf.Dataset {
	src, _ := vals.Var("LAI")
	shape := src.Shape(vals)
	cells := shape[1] * shape[2]
	layer := src.Data[(k%shape[0])*cells : (k%shape[0]+1)*cells]

	d := netcdf.NewDataset("lai")
	d.AddDim("time", k+1)
	d.AddDim("lat", shape[1])
	d.AddDim("lon", shape[2])
	tv := make([]float64, k+1)
	for i := range tv {
		tv[i] = float64(10 * i)
	}
	data := make([]float64, (k+1)*cells)
	for i := 0; i < k*cells; i++ {
		data[i] = -1
	}
	copy(data[k*cells:], layer)
	lat, _ := vals.Var("lat")
	lon, _ := vals.Var("lon")
	for _, v := range []*netcdf.Variable{
		{Name: "time", Dims: []string{"time"}, Data: tv, Attrs: map[string]string{"units": "days since " + productStart.Format("2006-01-02")}},
		{Name: "lat", Dims: []string{"lat"}, Data: lat.Data},
		{Name: "lon", Dims: []string{"lon"}, Data: lon.Data},
		{Name: "LAI", Dims: []string{"time", "lat", "lon"}, Data: data},
	} {
		if err := d.AddVar(v); err != nil {
			panic(err) // generator invariant: shapes always match
		}
	}
	return d
}

// ---- query templates ----

func iri(s string) string { return "<" + s + ">" }

func wktBox(e geom.Envelope) string {
	return fmt.Sprintf(`"POLYGON ((%.5f %.5f, %.5f %.5f, %.5f %.5f, %.5f %.5f, %.5f %.5f))"^^geo:wktLiteral`,
		e.MinX, e.MinY, e.MaxX, e.MinY, e.MaxX, e.MaxY, e.MinX, e.MaxY, e.MinX, e.MinY)
}

func dateLit(t time.Time) string { return rdf.NewDateTime(t).String() }

// listing3Value is Listing 3 restricted to observations above a value.
func listing3Value(prop string, thresh float64) string {
	return fmt.Sprintf(`SELECT DISTINCT ?s ?wkt ?v WHERE { ?s %s ?v . ?s geo:hasGeometry ?g . ?g geo:asWKT ?wkt . FILTER(?v > %.3f) }`, prop, thresh)
}

// listing3Time is Listing 3 restricted to one composite. The time
// pattern comes first: the compiled planner orders patterns itself, but
// the seed evaluator the oracle runs follows the text.
func listing3Time(prop string, t time.Time) string {
	return fmt.Sprintf(`SELECT DISTINCT ?s ?wkt ?v WHERE { ?s time:hasTime %s . ?s %s ?v . ?s geo:hasGeometry ?g . ?g geo:asWKT ?wkt }`, dateLit(t), prop)
}

func listing3Plain(prop string) string {
	return fmt.Sprintf(`SELECT DISTINCT ?s ?wkt ?v WHERE { ?s %s ?v . ?s geo:hasGeometry ?g . ?g geo:asWKT ?wkt }`, prop)
}

// listing1 is the paper's Listing 1 with the park name as parameter.
func listing1(park string) string {
	return strings.Replace(core.Listing1Query, "Bois de Boulogne", park, 1)
}

// viewport is a Geographica-style spatial selection over every geometry
// (or, with class set, over features of one class property).
func viewport(box geom.Envelope, classProp string) string {
	cls := ""
	if classProp != "" {
		cls = "?f " + iri(classProp) + " ?c . "
	}
	return fmt.Sprintf(`SELECT ?f ?wkt WHERE { %s?f geo:hasGeometry ?g . ?g geo:asWKT ?wkt . FILTER(geof:sfIntersects(?wkt, %s)) }`, cls, wktBox(box))
}

// landCoverIn is a Geographica-style spatial join: CORINE patches (of
// one class, when set) intersecting one GADM arrondissement.
func landCoverIn(area int, class string) string {
	cls := "?cls"
	if class != "" {
		cls = iri(rdf.NSCLC + class)
	}
	return fmt.Sprintf(`SELECT ?c ?wc WHERE { %s geo:hasGeometry ?ga . ?ga geo:asWKT ?wa . ?c %s %s . ?c geo:hasGeometry ?gc . ?gc geo:asWKT ?wc . FILTER(geof:sfIntersects(?wa, ?wc)) }`,
		iri(fmt.Sprintf("%sFRA.11.%d_1", rdf.NSGADM, area)), iri(rdf.NSCLC+"hasCorineValue"), cls)
}

func lookup(subject string) string {
	return fmt.Sprintf(`SELECT ?p ?o WHERE { %s ?p ?o }`, iri(subject))
}

func obsIRI(t, y, x int) string { return fmt.Sprintf("%sobs/%d/%d/%d", rdf.NSLAI, t, y, x) }

// randomBox is a viewport of a fixed share of the Paris extent at a
// random position, so every viewport costs about the same.
func randomBox(r *rng, share float64) geom.Envelope {
	e := workload.ParisExtent
	w, h := (e.MaxX-e.MinX)*share, (e.MaxY-e.MinY)*share
	x := e.MinX + r.float()*(e.MaxX-e.MinX-w)
	y := e.MinY + r.float()*(e.MaxY-e.MinY-h)
	return geom.Envelope{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
}

// generator hands out one workload's read sequence. Clients share it
// under a mutex, so the sequence is fixed by the seed alone.
type generator struct {
	mu   sync.Mutex
	r    *rng
	hot  []request
	z    *zipf
	next func(g *generator) request
}

func (g *generator) draw() request {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.next(g)
}

// hotOrTail draws from the Zipf hot set with probability hotShare and
// otherwise from tail.
func (g *generator) hotOrTail(tail func(r *rng) request) request {
	if g.r.float() < hotShare {
		return g.hot[g.z.sample(g.r)]
	}
	return tail(g.r)
}

// pick chooses an index by weight.
func pick(r *rng, weights ...float64) int {
	u := r.float()
	for i, w := range weights {
		if u < w {
			return i
		}
		u -= w
	}
	return len(weights) - 1
}

func newGenerator(wl string, seed int64, in *inputs) *generator {
	g := &generator{r: newRNG(seed, 1)}
	switch wl {
	case "materialized":
		g.hot = materializedHotSet(newRNG(seed, 2), in)
		g.z = newZipf(len(g.hot), zipfS)
		g.next = func(g *generator) request {
			return g.hotOrTail(func(r *rng) request { return materializedTail(r, in) })
		}
	case "ingest":
		g.next = func(g *generator) request { return ingestRead(g.r, in) }
	case "onthefly":
		g.next = func(g *generator) request { return onTheFlyRead(g.r, in) }
	case "remote":
		g.next = func(g *generator) request { return remoteRead(g.r, in) }
	}
	return g
}

// materializedHotSet fixes the hot set's rank order by template, and
// the parameters of its large answers (value thresholds at fixed
// quantiles, composites in order), so every seed weighs the same work
// equally; the seed picks the small answers' parameters. Listing 3 is
// rank 0 and the four single-composite variants follow, so the median
// read falls inside one narrow mode (a composite of Listing 3 served
// from the cache) and the p90 tail inside another (Listing 3 itself).
func materializedHotSet(r *rng, in *inputs) []request {
	order := strings.Fields(`l3 l3_time l3_time l3_time l3_time viewport lookup join l1
		viewport lookup l3_value join l1 viewport lookup l3_value join l1 viewport lookup join
		l1 viewport lookup l3_value join viewport lookup viewport join lookup`)
	quantiles := []float64{0.3, 0.6, 0.9}
	lai := iri(rdf.NSLAI + "lai")
	seen := map[string]bool{}
	nth := map[string]int{}
	var hot []request
	for _, kind := range order {
		i := nth[kind]
		nth[kind]++
		for {
			var q string
			switch kind {
			case "l3":
				q = core.Listing3Query
			case "l3_value":
				q = listing3Value(lai, valueQuantile(in.laiVals, quantiles[i]))
			case "l3_time":
				q = listing3Time(lai, compositeTime(i))
			case "l1":
				q = listing1(in.osm[r.intn(len(in.osm))].Name)
			case "viewport":
				q = viewport(randomBox(r, 0.2), "")
			case "join":
				q = landCoverIn(1+r.intn(gadmRows*gadmCols), "")
			case "lookup":
				q = lookup(obsIRI(r.intn(matTimes), r.intn(matLat), r.intn(matLon)))
			}
			if !seen[q] {
				seen[q] = true
				hot = append(hot, request{kind: kind, query: q})
				break
			}
		}
	}
	return hot
}

// positiveValues returns a grid variable's positive values, sorted.
func positiveValues(ds *netcdf.Dataset, varName string) []float64 {
	v, _ := ds.Var(varName)
	var vals []float64
	for _, x := range v.Data {
		if x > 0 {
			vals = append(vals, x)
		}
	}
	sort.Float64s(vals)
	return vals
}

// valueQuantile is the q-quantile of sorted values, so a value filter
// keeps the same share of observations whatever the seed.
func valueQuantile(sorted []float64, q float64) float64 {
	return math.Round(sorted[int(q*float64(len(sorted)-1))]*1000) / 1000
}

// materializedTail draws fresh parameters: continuous thresholds,
// random viewports, class-restricted joins, random parks and subjects.
func materializedTail(r *rng, in *inputs) request {
	lai := iri(rdf.NSLAI + "lai")
	var kind, q string
	switch pick(r, 0.35, 0.15, 0.30, 0.10, 0.10) {
	case 0:
		kind, q = "viewport", viewport(randomBox(r, 0.2), "")
	case 1:
		kind = "lookup"
		if r.float() < 0.5 {
			q = lookup(obsIRI(r.intn(matTimes), r.intn(matLat), r.intn(matLon)))
		} else {
			q = lookup(rdf.NSCLC + in.clc[r.intn(len(in.clc))].ID)
		}
	case 2:
		kind, q = "l3_value", listing3Value(lai, valueQuantile(in.laiVals, 0.75+0.23*r.float()))
	case 3:
		kind, q = "join", landCoverIn(1+r.intn(gadmRows*gadmCols), workload.CorineClasses[r.intn(len(workload.CorineClasses))])
	default:
		kind, q = "l1", listing1(in.osm[r.intn(len(in.osm))].Name)
	}
	return request{kind: kind, query: q}
}

// ingestViewports is the number of viewports ingest's reader picks
// from. A viewport selects one acknowledged composite's observations
// inside a box; every composite is the same grid, so every viewport
// costs about the same whatever the seed, and its answer never changes.
const ingestViewports = 16

func ingestRead(r *rng, in *inputs) request {
	switch pick(r, 0.5, 0.2, 0.2, 0.1) {
	case 0:
		return request{kind: "composite", composite: true, frac: r.float()}
	case 1:
		return request{kind: "composite_value", composite: true, frac: r.float(), thresh: valueQuantile(in.compSorted, []float64{0.3, 0.5, 0.7, 0.9}[r.intn(4)])}
	case 2:
		vr := newRNG(int64(r.intn(ingestViewports)), 99)
		return request{kind: "viewport", composite: true, frac: r.float(), box: randomBox(vr, 0.5)}
	default:
		return request{kind: "lookup", query: lookup(rdf.NSCLC + in.clc[r.intn(len(in.clc))].ID)}
	}
}

// compositeQuery resolves an ingest composite read against the number
// of composites acknowledged when it is sent.
func compositeQuery(req request, acked int) string {
	k := int(req.frac * float64(acked))
	if req.box != (geom.Envelope{}) {
		return fmt.Sprintf(`SELECT ?s ?wkt WHERE { ?s time:hasTime %s . ?s geo:hasGeometry ?g . ?g geo:asWKT ?wkt . FILTER(geof:sfIntersects(?wkt, %s)) }`,
			dateLit(compositeTime(k)), wktBox(req.box))
	}
	q := listing3Time(iri(rdf.NSLAI+"lai"), compositeTime(k))
	if req.thresh > 0 {
		q = strings.Replace(q, " }", fmt.Sprintf(" . FILTER(?v > %.3f) }", req.thresh), 1)
	}
	return q
}

func onTheFlyRead(r *rng, in *inputs) request {
	lai, ndvi := iri(rdf.NSLAI+"lai"), iri(rdf.NSLAI+"ndvi")
	quantiles := []float64{0.3, 0.5, 0.7, 0.9}
	switch pick(r, 0.25, 0.25, 0.15, 0.15, 0.20) {
	case 0:
		return request{kind: "l3", query: core.Listing3Query}
	case 1:
		return request{kind: "l3_value", query: listing3Value(lai, valueQuantile(in.laiVals, quantiles[r.intn(len(quantiles))]))}
	case 2:
		return request{kind: "l3_time", query: listing3Time(lai, compositeTime(r.intn(flyTimes)))}
	case 3:
		return request{kind: "ndvi", query: listing3Plain(ndvi)}
	default:
		return request{kind: "ndvi_value", query: listing3Value(ndvi, valueQuantile(in.ndviVals, quantiles[r.intn(len(quantiles))]))}
	}
}

// Remote targets: each read goes to the cluster or the federation by a
// seeded coin, never by the clock.
const (
	targetCluster    = 0
	targetFederation = 1
)

func remoteRead(r *rng, in *inputs) request {
	target := r.intn(2)
	lai := iri(rdf.NSLAI + "lai")
	var kind, q string
	switch pick(r, 0.25, 0.35, 0.15, 0.15, 0.10) {
	case 0:
		kind, q = "l3", core.Listing3Query
	case 1:
		kind, q = "l3_value", listing3Value(lai, valueQuantile(in.laiVals, []float64{0.3, 0.5, 0.7, 0.9}[r.intn(4)]))
	case 2:
		kind, q = "l1", listing1(in.osm[r.intn(8)].Name)
	case 3:
		kind, q = "lookup", lookup(obsIRI(r.intn(remTimes), r.intn(remLat), r.intn(remLon)))
	default:
		kind, q = "lookup", lookup(rdf.NSOSM+in.osm[r.intn(len(in.osm))].ID)
	}
	return request{target: target, kind: kind, query: q}
}
