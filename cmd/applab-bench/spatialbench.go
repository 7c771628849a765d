package main

import (
	"encoding/json"
	"fmt"
	"os"

	"applab/internal/geographica"
	"applab/internal/rdf"
	"applab/internal/sparql"
	"applab/internal/telemetry"
)

// The -spatial-json mode measures what the planner-selected spatial
// join buys over the seed shape (per-row FILTER over a cross product)
// on Geographica join queries, and what it costs on non-spatial plans.
// Two gates are enforced:
//
//   - the spatial join ("auto") must be at least minSpatialSpeedup
//     faster than the per-row filter path ("off") on every join query;
//   - Engine_BGPJoin — a plan with no spatial filter at all — must stay
//     within maxSpatialRegressionPct of its off-mode ns/op, so the
//     detection pass is free for everyone else.
//
// Each join mode (inl forced, auto) additionally runs once and must
// return exactly as many rows as the filter path, and between them the
// runs must exercise both candidate generators (inl, store): the
// speedup is only worth recording if every generator agrees.

// minSpatialSpeedup is the off/auto ns/op ratio the spatial join must
// reach on the Geographica join queries.
const minSpatialSpeedup = 3.0

// maxSpatialRegressionPct is the ns/op budget spatial-join detection
// may cost a plan with no spatial filter.
const maxSpatialRegressionPct = 5.0

// spatialBenchScale is the Geographica feature count per dataset.
const spatialBenchScale = 200

type spatialJoinBenchRecord struct {
	Name            string             `json:"name"`
	FilterNsPerOp   float64            `json:"filter_ns_per_op"`
	JoinNsPerOp     float64            `json:"join_ns_per_op"`
	Speedup         float64            `json:"speedup"`
	MinSpeedup      float64            `json:"min_speedup"`
	Rows            int                `json:"rows"`
	StrategyNsPerOp map[string]float64 `json:"strategy_ns_per_op"`
}

type spatialRegressionRecord struct {
	Name        string  `json:"name"`
	OffNsPerOp  float64 `json:"off_ns_per_op"`
	AutoNsPerOp float64 `json:"auto_ns_per_op"`
	OverheadPct float64 `json:"overhead_pct"`
	BudgetPct   float64 `json:"budget_pct"`
}

type spatialBenchReport struct {
	Joins      []spatialJoinBenchRecord `json:"joins"`
	Strategies map[string]int64         `json:"strategies_exercised"`
	Regression spatialRegressionRecord  `json:"bgp_join_regression"`
}

// spatialBenchQueries are Geographica-style join queries: two pattern
// components connected only by the FILTER, which is exactly the shape
// the planner lowers to a spatial join. The last one's bare
// `?gb geo:asWKT ?wb` build side is the store-pushdown shape.
func spatialBenchQueries() []struct{ name, query string } {
	twoComp := `SELECT ?a ?b WHERE {
  ?a <%s> ?clsA .
  ?a geo:hasGeometry ?ga .
  ?ga geo:asWKT ?wa .
  ?b <%s> ?clsB .
  ?b geo:hasGeometry ?gb .
  ?gb geo:asWKT ?wb .
  FILTER(geof:%s(?wa, ?wb))
}`
	storeShape := `SELECT ?a ?gb WHERE {
  ?a <%s> ?clsA .
  ?a geo:hasGeometry ?ga .
  ?ga geo:asWKT ?wa .
  ?gb geo:asWKT ?wb .
  FILTER(geof:%s(?wa, ?wb))
}`
	return []struct{ name, query string }{
		{"Spatial_OSMxCLC_Intersects",
			fmt.Sprintf(twoComp, rdf.NSOSM+"poiType", rdf.NSCLC+"hasCorineValue", "sfIntersects")},
		{"Spatial_UAxGADM_Within",
			fmt.Sprintf(twoComp, rdf.NSUA+"hasClass", rdf.NSGADM+"hasType", "sfWithin")},
		{"Spatial_OSMxStore_Intersects",
			fmt.Sprintf(storeShape, rdf.NSOSM+"poiType", "sfIntersects")},
	}
}

// spatialStrategies are the candidate generators the spatial join
// reports in spatial_join_total{strategy}.
var spatialStrategies = []string{sparql.SpatialJoinINL, "store"}

// strategyCounters extracts the spatial_join_total{strategy=...} deltas
// from a registry snapshot.
func strategyCounters(reg *telemetry.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, s := range spatialStrategies {
		key := fmt.Sprintf(`spatial_join_total{strategy=%q}`, s)
		if v, ok := reg.Snapshot().Counters[key]; ok && v > 0 {
			out[s] = v
		}
	}
	return out
}

// runSpatialBenchJSON measures the join queries in every mode, writes
// the report to path, and fails when a join query misses the speedup
// floor, a join mode diverges on row count, or Engine_BGPJoin
// regresses past the budget.
func runSpatialBenchJSON(path string) error {
	defer func() {
		sparql.SetSpatialJoin("")
		sparql.SetMetrics(nil)
	}()

	w := geographica.NewWorkload(spatialBenchScale, 11)
	sys, err := geographica.NewStrabonSystem(w)
	if err != nil {
		return err
	}
	st := sys.Store()
	defer st.Close()

	report := spatialBenchReport{Strategies: map[string]int64{}}
	for _, bq := range spatialBenchQueries() {
		parsed, err := sparql.Parse(bq.query)
		if err != nil {
			return fmt.Errorf("parse %s: %w", bq.name, err)
		}
		eval := func() (*sparql.Results, error) { return parsed.Eval(st) }

		if err := sparql.SetSpatialJoin(sparql.SpatialJoinOff); err != nil {
			return err
		}
		baseRes, err := eval()
		if err != nil {
			return fmt.Errorf("%s filter path: %w", bq.name, err)
		}
		// The speedup floor fails when auto is slower than off/minSpeedup,
		// i.e. when the pair overhead exceeds 100/minSpeedup - 100.
		offNs, autoNs, autoPct, err := pairedOverheadPct(100/minSpatialSpeedup-100, telemetryBenchTrials,
			func() (*sparql.Results, error) {
				if err := sparql.SetSpatialJoin(sparql.SpatialJoinOff); err != nil {
					return nil, err
				}
				return eval()
			},
			func() (*sparql.Results, error) {
				if err := sparql.SetSpatialJoin(sparql.SpatialJoinAuto); err != nil {
					return nil, err
				}
				return eval()
			})
		if err != nil {
			return fmt.Errorf("%s filter/spatial join: %w", bq.name, err)
		}

		rec := spatialJoinBenchRecord{
			Name:            bq.name,
			FilterNsPerOp:   offNs,
			JoinNsPerOp:     autoNs,
			Speedup:         100 / (100 + autoPct),
			MinSpeedup:      minSpatialSpeedup,
			Rows:            len(baseRes.Bindings),
			StrategyNsPerOp: map[string]float64{},
		}

		// Every join mode must agree with the filter path on the row
		// count; the registry pins which strategy actually ran.
		for _, mode := range []string{sparql.SpatialJoinINL, sparql.SpatialJoinAuto} {
			if err := sparql.SetSpatialJoin(mode); err != nil {
				return err
			}
			reg := telemetry.NewRegistry()
			sparql.SetMetrics(reg)
			res, err := eval()
			sparql.SetMetrics(nil)
			if err != nil {
				return fmt.Errorf("%s mode=%s: %w", bq.name, mode, err)
			}
			if len(res.Bindings) != rec.Rows {
				return fmt.Errorf("%s mode=%s: %d rows, filter path returned %d",
					bq.name, mode, len(res.Bindings), rec.Rows)
			}
			for s, n := range strategyCounters(reg) {
				report.Strategies[s] += n
			}
			ns, err := bestNsPerOp(1, eval)
			if err != nil {
				return fmt.Errorf("%s mode=%s: %w", bq.name, mode, err)
			}
			rec.StrategyNsPerOp[mode] = ns
		}

		report.Joins = append(report.Joins, rec)
		fmt.Printf("%-28s filter %12.0f ns/op   join %12.0f ns/op   speedup %5.2fx   rows %d\n",
			rec.Name, rec.FilterNsPerOp, rec.JoinNsPerOp, rec.Speedup, rec.Rows)
	}

	// The no-spatial-filter regression check: Engine_BGPJoin compiled
	// with detection off vs on.
	g := engineBenchGraph(5000)
	parsed, err := sparql.Parse(engineBenchQueries[0].query)
	if err != nil {
		return err
	}
	eval := func() (*sparql.Results, error) { return parsed.Eval(g) }
	offNs, autoNs, overhead, err := pairedOverheadPct(maxSpatialRegressionPct, telemetryBenchTrials,
		func() (*sparql.Results, error) {
			if err := sparql.SetSpatialJoin(sparql.SpatialJoinOff); err != nil {
				return nil, err
			}
			return eval()
		},
		func() (*sparql.Results, error) {
			if err := sparql.SetSpatialJoin(sparql.SpatialJoinAuto); err != nil {
				return nil, err
			}
			return eval()
		})
	if err != nil {
		return err
	}
	report.Regression = spatialRegressionRecord{
		Name:        engineBenchQueries[0].name,
		OffNsPerOp:  offNs,
		AutoNsPerOp: autoNs,
		OverheadPct: overhead,
		BudgetPct:   maxSpatialRegressionPct,
	}
	fmt.Printf("%-28s off %15.0f ns/op   auto %12.0f ns/op   overhead %+6.2f%%\n",
		report.Regression.Name, offNs, autoNs, report.Regression.OverheadPct)

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}

	for _, rec := range report.Joins {
		if rec.Speedup < rec.MinSpeedup {
			return fmt.Errorf("%s: spatial join speedup %.2fx is under the %.1fx floor",
				rec.Name, rec.Speedup, rec.MinSpeedup)
		}
	}
	for _, s := range spatialStrategies {
		if report.Strategies[s] == 0 {
			return fmt.Errorf("strategy %q was never exercised", s)
		}
	}
	if report.Regression.OverheadPct >= report.Regression.BudgetPct {
		return fmt.Errorf("%s: spatial-join detection overhead %.2f%% exceeds the %.0f%% budget",
			report.Regression.Name, report.Regression.OverheadPct, report.Regression.BudgetPct)
	}
	return nil
}
