package analysis

import (
	"go/ast"
	"strings"
)

// PurePathSuffixes lists the import-path suffixes of packages that must
// stay deterministic: SPARQL/GeoSPARQL evaluation and the geometry
// kernels. Benchmarks (EXPERIMENTS.md) and the cluster's shard-merge
// invariants assume that evaluating the same query over the same data
// yields identical results; a wall-clock read buried in evaluation code
// breaks that and makes regressions unreproducible. Such code takes
// instants as parameters instead.
var PurePathSuffixes = []string{
	"internal/geom",
	"internal/geom/rtree",
	"internal/geosparql",
	"internal/rdf",
	"internal/sparql",
}

// nakedtimeChecker flags time.Now() calls inside the pure evaluation
// packages.
func nakedtimeChecker() Checker {
	return Checker{
		Name: "nakedtime",
		Doc:  "no time.Now() in pure evaluation/geometry packages; take instants as parameters",
		Run:  runNakedtime,
	}
}

func runNakedtime(pass *Pass) []Finding {
	pure := false
	for _, suffix := range PurePathSuffixes {
		if pass.Path == suffix || strings.HasSuffix(pass.Path, "/"+suffix) {
			pure = true
			break
		}
	}
	if !pure {
		return nil
	}
	var out []Finding
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := calleeFunc(pass.Info, call); isPkgFunc(fn, "time", "Now") {
				out = append(out, pass.finding(call.Pos(), "nakedtime",
					"time.Now() in pure evaluation code; pass the instant in as a parameter to keep results deterministic"))
			}
			return true
		})
	}
	return out
}
