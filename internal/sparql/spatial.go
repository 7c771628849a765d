package sparql

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"applab/internal/geom"
	"applab/internal/geom/rtree"
	"applab/internal/rdf"
)

// A FILTER(geof:sfIntersects(?wa, ?wb)) over the cross product of two
// otherwise unconnected pattern groups is a spatial θ-join that the
// per-row filter path evaluates in O(|A|·|B|) exact predicate calls.
// The compiler detects that shape (see compileSpatialUnit) and lowers
// the whole unit to a spatialJoinOp: the build side's WKT column is
// batch-decoded into a columnar geom.Arena, an envelope index prunes
// candidate pairs, and the registered exact predicate refines the
// survivors. Two interchangeable candidate generators:
//
//   - "inl":   index nested loop — STR-bulk-load an R-tree over the
//     build side, probe per probe-side row.
//   - "store": when the build side is the bare `?g geo:asWKT ?w` scan
//     and the source has its own spatial index (strabon.Store's R-tree,
//     via SpatialSource), probe the store directly and never
//     materialize the build side at all.
//
// Each strategy emits its rows in one fixed order for any worker count
// (probe rows in input order; candidates in build-row order for inl,
// canonical triple order for store) — the same determinism contract as
// hash join — and both tick the same cancellation checkpoints.

// SpatialSource is an optional extension of Source for backends with
// their own spatial index over geo:asWKT triples. The spatial-join
// operator probes it instead of materializing every geometry when the
// build side of the join is the bare WKT scan.
type SpatialSource interface {
	Source
	// SpatialCandidates returns the geo:asWKT triples whose geometry
	// envelope intersects env, and whether the index is available.
	SpatialCandidates(env geom.Envelope) ([]rdf.Triple, bool)
}

// ---- spatial relation registry ----

var (
	spatialRelMu sync.RWMutex
	spatialRels  = map[string]func(a, b geom.Geometry) bool{}
)

// RegisterSpatialRelation declares iri as a spatial predicate the
// planner may execute as a spatial join. The relation must be
// envelope-conservative — rel(a, b) implies a and b's envelopes
// intersect — which is what lets the join discard envelope-disjoint
// pairs without calling rel (geof:sfDisjoint, for example, must NOT be
// registered). geosparql.Register installs the geof:sf* family.
func RegisterSpatialRelation(iri string, rel func(a, b geom.Geometry) bool) {
	spatialRelMu.Lock()
	defer spatialRelMu.Unlock()
	spatialRels[iri] = rel
}

func spatialRelation(iri string) (func(a, b geom.Geometry) bool, bool) {
	spatialRelMu.RLock()
	defer spatialRelMu.RUnlock()
	rel, ok := spatialRels[iri]
	return rel, ok
}

// ---- configuration ----

// Spatial-join modes accepted by SetSpatialJoin.
const (
	SpatialJoinAuto = "auto" // store index when available, else inl
	SpatialJoinOff  = "off"  // per-row filter path (the seed shape)
	SpatialJoinINL  = "inl"  // force the R-tree nested loop
)

// spatialJoinStore is the strategy label auto mode reports when it
// probes the source's own spatial index.
const spatialJoinStore = "store"

var cfgSpatialJoin atomic.Value // string; empty = auto

// SetSpatialJoin selects the spatial-join mode ("auto", "off", "inl");
// empty restores "auto". Every mode returns the same answers. Safe for
// concurrent use.
func SetSpatialJoin(mode string) error {
	switch mode {
	case "", SpatialJoinAuto, SpatialJoinOff, SpatialJoinINL:
	default:
		return fmt.Errorf("sparql: unknown spatial-join mode %q", mode)
	}
	if mode == "" {
		mode = SpatialJoinAuto
	}
	cfgSpatialJoin.Store(mode)
	return nil
}

// SpatialJoinMode reports the effective spatial-join mode.
func SpatialJoinMode() string {
	if v, ok := cfgSpatialJoin.Load().(string); ok && v != "" {
		return v
	}
	return SpatialJoinAuto
}

// ---- compile-time detection ----

// spatialFilterArgs recognizes FILTER(geof:rel(?a, ?b)) shapes.
func spatialFilterArgs(e Expr) (iri, a, b string, ok bool) {
	call, isCall := e.(CallExpr)
	if !isCall || len(call.Args) != 2 {
		return "", "", "", false
	}
	av, okA := call.Args[0].(VarExpr)
	bv, okB := call.Args[1].(VarExpr)
	if !okA || !okB || av.Name == bv.Name {
		return "", "", "", false
	}
	return call.IRI, av.Name, bv.Name, true
}

// patternVars lists a pattern's variable positions.
func patternVars(tp TriplePattern) []string {
	var vs []string
	for _, v := range []string{tp.S.Var, tp.P.Var, tp.O.Var} {
		if v != "" {
			vs = append(vs, v)
		}
	}
	return vs
}

// compileSpatialUnit tries to lower a BGP join unit plus its trailing
// FILTER run as a spatial join. It returns the unit's ops and true on
// success (the caller then skips the filter elements); nil, false keeps
// the ordinary compilation.
//
// The unit splits when one of the filters is a registered spatial
// relation over two variables bound by pattern components that share no
// variable (directly or transitively, counting variables bound by
// earlier plan ops as one shared "outer" component): the component of
// one argument becomes the operator's build side, everything else
// compiles as usual and feeds the probe side. Which side builds is
// picked from StatsSource cardinalities (smaller estimated side
// builds); a component reachable from outer bindings must stay on the
// probe side, where the incoming rows are.
func (c *compiler) compileSpatialUnit(pats []TriplePattern, filters []Element) ([]op, bool) {
	if SpatialJoinMode() == SpatialJoinOff || len(pats) < 2 || len(filters) == 0 {
		return nil, false
	}

	// Union-find over patterns; index len(pats) is the virtual "outer"
	// node for variables already bound before this unit.
	parent := make([]int, len(pats)+1)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	outer := len(pats)
	varHome := map[string]int{}
	for pi, tp := range pats {
		for _, v := range patternVars(tp) {
			if c.states[v] != varUnseen {
				union(pi, outer)
				continue
			}
			if home, ok := varHome[v]; ok {
				union(pi, home)
			} else {
				varHome[v] = pi
			}
		}
	}

	// Pick the first splittable spatial filter in the run.
	pick := -1
	var rel func(a, b geom.Geometry) bool
	var va, vb string
	var rootA, rootB int
	for fi, el := range filters {
		f, isFilter := el.(Filter)
		if !isFilter {
			return nil, false
		}
		iri, a, b, ok := spatialFilterArgs(f.Expr)
		if !ok {
			continue
		}
		r, ok := spatialRelation(iri)
		if !ok {
			continue
		}
		if c.states[a] != varUnseen || c.states[b] != varUnseen {
			continue
		}
		homeA, okA := varHome[a]
		homeB, okB := varHome[b]
		if !okA || !okB {
			continue
		}
		ra, rb := find(homeA), find(homeB)
		if ra == rb {
			continue
		}
		pick, rel, va, vb, rootA, rootB = fi, r, a, b, ra, rb
		break
	}
	if pick < 0 {
		return nil, false
	}

	// Choose the build side: never the outer-connected component (it
	// needs the incoming rows); otherwise the smaller estimated one.
	outerRoot := find(outer)
	buildRoot := rootB
	swapped := false // true when the build side binds the first argument
	switch {
	case rootB == outerRoot:
		buildRoot, swapped = rootA, true
	case rootA == outerRoot:
		// keep rootB
	default:
		estA, estB := c.componentEstimate(pats, find, rootA), c.componentEstimate(pats, find, rootB)
		if estA >= 0 && (estB < 0 || estA < estB) {
			buildRoot, swapped = rootA, true
		}
	}

	var probePats, buildPats []TriplePattern
	for pi, tp := range pats {
		if find(pi) == buildRoot {
			buildPats = append(buildPats, tp)
		} else {
			probePats = append(probePats, tp)
		}
	}
	if len(buildPats) == 0 || len(probePats) == 0 {
		return nil, false
	}

	ops := c.compileBGP(probePats)
	body := c.compileBGP(buildPats)
	probeVar, buildVar := va, vb
	if swapped {
		probeVar, buildVar = vb, va
	}
	sj := &spatialJoinOp{
		rel:       rel,
		body:      body,
		probeSlot: c.vt.slot(probeVar),
		buildSlot: c.vt.slot(buildVar),
		swapped:   swapped,
	}
	// Store-pushdown shape: the build side is exactly the bare
	// `?g geo:asWKT ?w` scan binding the filter's geometry variable.
	if len(body) == 1 {
		if sc, ok := body[0].(*scanOp); ok &&
			sc.pSlot < 0 && sc.p.Equal(asWKTTerm) &&
			sc.sSlot >= 0 && sc.oSlot == sj.buildSlot && sc.sSlot != sc.oSlot {
			sj.scan = sc
		}
	}
	ops = append(ops, sj)
	for fi, el := range filters {
		if fi == pick {
			continue
		}
		ops = append(ops, &filterOp{cond: compileExpr(el.(Filter).Expr, c.vt)})
	}
	return ops, true
}

var asWKTTerm = rdf.NewIRI(rdf.NSGeo + "asWKT")

// componentEstimate sums the constants-only cardinality estimates of a
// component's patterns; negative means unknown.
func (c *compiler) componentEstimate(pats []TriplePattern, find func(int) int, root int) int {
	if c.stats == nil {
		return -1
	}
	est := 0
	for pi, tp := range pats {
		if find(pi) != root {
			continue
		}
		e := c.stats.Cardinality(constOrWildcard(tp.S), constOrWildcard(tp.P), constOrWildcard(tp.O))
		if e < 0 {
			return -1
		}
		est += e
	}
	return est
}

// ---- batch WKT decoding ----

// geomBatch memoizes WKT decoding into a columnar arena: one parse and
// one materialized view per distinct lexical form. Not safe for
// concurrent use — each worker chunk builds its own.
type geomBatch struct {
	ar   *geom.Arena
	ids  map[string]int32 // lexical form -> arena id; -1 = undecodable
	mats []geom.Geometry  // materialized views, by arena id
}

func newGeomBatch() *geomBatch {
	return &geomBatch{ar: geom.NewArena(), ids: map[string]int32{}}
}

// decode resolves a term to its arena-backed geometry and envelope.
// Unbound slots, non-literals and unparsable WKT report ok=false — the
// rows the per-row filter path drops as expression errors.
func (gb *geomBatch) decode(t rdf.Term) (geom.Geometry, geom.Envelope, bool) {
	if t.IsZero() || !t.IsLiteral() {
		return nil, geom.EmptyEnvelope(), false
	}
	if id, ok := gb.ids[t.Value]; ok {
		if id < 0 {
			return nil, geom.EmptyEnvelope(), false
		}
		return gb.mats[id], gb.ar.Envelope(id), true
	}
	id, err := gb.ar.AddWKT(t.Value)
	if err != nil {
		gb.ids[t.Value] = -1
		return nil, geom.EmptyEnvelope(), false
	}
	gb.ids[t.Value] = id
	gb.mats = append(gb.mats, gb.ar.Geometry(id))
	return gb.mats[id], gb.ar.Envelope(id), true
}

// ---- the operator ----

type spatialJoinOp struct {
	rel  func(a, b geom.Geometry) bool
	body []op // compiled build-side plan, run from an empty seed row

	probeSlot int // WKT slot bound by incoming rows
	buildSlot int // WKT slot bound by the body
	// swapped: the build side binds the predicate's FIRST argument, so
	// exact refinement calls rel(build, probe).
	swapped bool

	// scan is non-nil when the body is the bare geo:asWKT scan — the
	// shape the store-pushdown strategy can serve straight from a
	// SpatialSource index.
	scan *scanOp
}

// chunkedRange is chunked over an index range instead of a row slice:
// fn gets [lo, hi) partitions of [0, n) and outputs are concatenated in
// partition order, so results are identical for any worker count.
func chunkedRange(ec *execCtx, n int, fn func(lo, hi int) ([]row, error)) ([]row, error) {
	if ec.workers <= 1 || n < ec.threshold {
		return fn(0, n)
	}
	w := ec.workers
	if w > n {
		w = n
	}
	size := (n + w - 1) / w
	nchunks := (n + size - 1) / size
	done := noteParallelStage(nchunks)
	defer done()
	outs := make([][]row, nchunks)
	errs := make([]error, nchunks)
	var wg sync.WaitGroup
	for i := 0; i < nchunks; i++ {
		lo := i * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			outs[i], errs[i] = fn(lo, hi)
		}(i, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	total := 0
	var agg int
	for _, o := range outs {
		if err := ec.tick(&agg); err != nil {
			return nil, err
		}
		total += len(o)
	}
	out := make([]row, 0, total)
	for _, o := range outs {
		if err := ec.tick(&agg); err != nil {
			return nil, err
		}
		out = append(out, o...)
	}
	return out, nil
}

// mergeRow joins a probe row with a build row. The two sides bind
// disjoint slot sets by construction; the agreement check is a cheap
// guard, mirroring scanOp.extend.
func mergeRow(a, b row) (row, bool) {
	nr := a.clone()
	for s, t := range b {
		if t.IsZero() {
			continue
		}
		if cur := nr[s]; !cur.IsZero() {
			if !cur.Equal(t) {
				return nil, false
			}
			continue
		}
		nr[s] = t
	}
	return nr, true
}

func (sj *spatialJoinOp) run(ec *execCtx, in []row) ([]row, error) {
	if sj.scan != nil && SpatialJoinMode() == SpatialJoinAuto {
		if sp, ok := ec.src.(SpatialSource); ok {
			if _, avail := sp.SpatialCandidates(geom.EmptyEnvelope()); avail {
				return sj.runStore(ec, sp, in)
			}
		}
	}

	// Materialize and batch-decode the build side once, and STR-load
	// the R-tree over its envelopes; undecodable rows and empty
	// envelopes stay out of it.
	bRows, err := runOps(ec, sj.body, []row{make(row, len(in[0]))})
	if err != nil {
		return nil, err
	}
	if len(bRows) == 0 {
		return nil, nil
	}
	bg := newGeomBatch()
	bGeoms := make([]geom.Geometry, len(bRows))
	items := make([]rtree.Item, 0, len(bRows))
	n := 0
	for bi, br := range bRows {
		if err := ec.tick(&n); err != nil {
			return nil, err
		}
		g, env, ok := bg.decode(br[sj.buildSlot])
		if !ok || env.IsEmpty() {
			continue
		}
		bGeoms[bi] = g
		items = append(items, rtree.Item{Env: env, Data: int32(bi)})
	}
	tree := rtree.Bulk(items)
	noteSpatialJoin(SpatialJoinINL)

	return chunkedRange(ec, len(in), func(lo, hi int) ([]row, error) {
		pb := newGeomBatch()
		var out []row
		var cand []int32
		probes := 0
		n := 0
		for i := lo; i < hi; i++ {
			if err := ec.tick(&n); err != nil {
				return nil, err
			}
			r := in[i]
			pg, env, ok := pb.decode(r[sj.probeSlot])
			if !ok {
				continue
			}
			probes++
			cand = cand[:0]
			tree.Search(env, func(it rtree.Item) bool {
				cand = append(cand, it.Data.(int32))
				return true
			})
			// Candidates come out in tree order; sort by build-row index
			// so rows are emitted in the same order for any worker count.
			sort.Slice(cand, func(a, b int) bool { return cand[a] < cand[b] })
			if err := ec.tickN(&n, len(cand)); err != nil {
				return nil, err
			}
			for _, bi := range cand {
				hit := false
				if sj.swapped {
					hit = sj.rel(bGeoms[bi], pg)
				} else {
					hit = sj.rel(pg, bGeoms[bi])
				}
				if !hit {
					continue
				}
				if nr, ok := mergeRow(r, bRows[bi]); ok {
					out = append(out, nr)
				}
			}
		}
		noteSpatialProbes(probes)
		return out, nil
	})
}

// runStore is the store-pushdown strategy: probe the source's own
// spatial index per row and extend rows through the build-side scan
// exactly like a nested-loop match would.
func (sj *spatialJoinOp) runStore(ec *execCtx, sp SpatialSource, in []row) ([]row, error) {
	noteSpatialJoin(spatialJoinStore)
	return chunkedRange(ec, len(in), func(lo, hi int) ([]row, error) {
		pb := newGeomBatch()
		var ar rowArena
		var out []row
		probes := 0
		n := 0
		for i := lo; i < hi; i++ {
			if err := ec.tick(&n); err != nil {
				return nil, err
			}
			r := in[i]
			pg, env, ok := pb.decode(r[sj.probeSlot])
			if !ok {
				continue
			}
			probes++
			cands, _ := sp.SpatialCandidates(env)
			// The index returns tree order; fix a deterministic emission
			// order (the canonical triple order of the candidates).
			sort.Slice(cands, func(a, b int) bool {
				ka, kb := cands[a].S.Key(), cands[b].S.Key()
				if ka != kb {
					return ka < kb
				}
				return cands[a].O.Key() < cands[b].O.Key()
			})
			if err := ec.tickN(&n, len(cands)); err != nil {
				return nil, err
			}
			for _, t := range cands {
				bgeom, _, ok := pb.decode(t.O)
				if !ok {
					continue
				}
				hit := false
				if sj.swapped {
					hit = sj.rel(bgeom, pg)
				} else {
					hit = sj.rel(pg, bgeom)
				}
				if !hit {
					continue
				}
				if nr, ok := sj.scan.extend(r, t, &ar); ok {
					out = append(out, nr)
				}
			}
		}
		noteSpatialProbes(probes)
		return out, nil
	})
}
