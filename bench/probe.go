package main

// The sequential phase after the load. Both legs of a traced run, and
// an untraced run, send the probe queries and record their plans; the
// traced leg then calls each layer's public functions itself, inside
// spans.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"applab/internal/endpoint"
	"applab/internal/sparql"
	"applab/internal/telemetry"
)

// probeCount is how many distinct queries the probes and the
// plan-identity check use.
const probeCount = 12

// probeSet draws the first probeCount distinct requests of a fresh
// generator for the seed, so every run of the seed probes the same
// queries. Ingest's composite reads name one of the composites set-up
// loaded, which every run holds whatever its writer reached.
func probeSet(wl string, seed int64, in *inputs) []request {
	g := newGenerator(wl, seed, in)
	seen := map[string]bool{}
	var out []request
	for i := 0; len(out) < probeCount && i < 10000; i++ {
		req := g.draw()
		if req.composite {
			req.query = compositeQuery(req, initialComposites)
			req.composite = false
		}
		key := fmt.Sprint(req.target, req.query)
		if !seen[key] {
			seen[key] = true
			out = append(out, req)
		}
	}
	return out
}

// planCounters are the engine counters a plan is identified by.
var planCounters = []string{
	"sparql_patterns_planned_total",
	`sparql_join_strategy_total{strategy="cross"}`,
	`sparql_join_strategy_total{strategy="hash"}`,
	`sparql_join_strategy_total{strategy="nested_loop"}`,
	`spatial_join_total{strategy="inl"}`,
	`spatial_join_total{strategy="cells"}`,
	`spatial_join_total{strategy="store"}`,
}

// planPrint is one query's plan counters and answer row count.
type planPrint struct {
	counters [7]int64
	rows     int
}

func planDelta(a, b telemetry.Snapshot, rows int) planPrint {
	p := planPrint{rows: rows}
	for i, k := range planCounters {
		p.counters[i] = b.Counters[k] - a.Counters[k]
	}
	return p
}

// planPrints sends each probe query once from an empty result cache
// and records its plan counters and row count.
func (d *loader) planPrints(probes []request) ([]planPrint, error) {
	var buf bytes.Buffer
	out := make([]planPrint, len(probes))
	for i, req := range probes {
		if d.st.cache != nil {
			d.st.cache.Purge()
		}
		before := d.st.reg.Snapshot()
		if s := d.read(req, &buf); s.fail != "" {
			return nil, fmt.Errorf("probe %s: %s", req.kind, s.fail)
		}
		ans, err := canonJSON(buf.Bytes())
		if err != nil {
			return nil, err
		}
		out[i] = planDelta(before, d.st.reg.Snapshot(), ans.rows)
	}
	return out, nil
}

// comparePlans counts the probes whose plans differ between two runs.
func comparePlans(a, b []planPrint) int {
	n := max(len(a), len(b)) - min(len(a), len(b))
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// probeLayers calls parse, cache lookup, snapshot, eval, encode and the
// seed evaluator directly for each probe query, inside spans. It
// returns the number of probes whose compiled and seed answers differ.
func (d *loader) probeLayers(probes []request) (wrong int, err error) {
	ctx := context.Background()
	tr := d.tr
	for _, req := range probes {
		src := d.st.srcs[req.target]
		var q *sparql.Query
		tr.do("sparql.Parse", 0, func() { q, err = sparql.Parse(req.query) })
		if err != nil {
			return 0, fmt.Errorf("probe parse: %w", err)
		}
		if c := d.st.cache; c != nil {
			// A miss leaves its fill unused: the probe only times the lookup.
			tr.do("rescache.Lookup", 0, func() { c.Lookup(q, src) })
		}
		if vg := d.st.vg; vg != nil {
			vg.Invalidate()
			tr.do("obda.Snapshot", 0, func() { _, err = vg.Snapshot() })
			if err != nil {
				return 0, fmt.Errorf("probe snapshot: %w", err)
			}
		}
		var res *sparql.Results
		tr.do("sparql.Eval", 0, func() {
			if pe, ok := src.(endpoint.PartialEvaluator); ok {
				res, _, err = pe.EvalPartialContext(ctx, req.query)
			} else {
				res, err = q.EvalContext(ctx, src)
			}
		})
		if err != nil {
			return 0, fmt.Errorf("probe eval: %w", err)
		}
		tr.do("encode", 0, func() { _, err = json.Marshal(endpoint.ResultsJSON(res)) })
		if err != nil {
			return 0, fmt.Errorf("probe encode: %w", err)
		}
		var seed *sparql.Results
		tr.do("sparql.EvalSeed", 0, func() { seed, err = q.EvalSeed(src) })
		if err != nil {
			return 0, fmt.Errorf("probe seed eval: %w", err)
		}
		if canonResults(seed) != canonResults(res) {
			wrong++
		}
	}
	return wrong, nil
}
