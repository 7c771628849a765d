package geosparql

import (
	"sync/atomic"

	"applab/internal/telemetry"
)

// Like the query engine, geosparql is configured package-wide, so its
// registry hookup is too. Every geosparql metric name literal lives in
// this file, one call site each (enforced by the applab-lint telemetry
// checker), and everything no-ops while no registry is set.

var geoMetrics atomic.Pointer[telemetry.Registry]

// SetMetrics installs (or, with nil, removes) the registry geosparql
// reports into, and publishes the parsed-geometry cache's live arena
// bytes to it: the cache is process-wide, so a fresh registry must not
// read 0 until the next insertion. Safe for concurrent use.
func SetMetrics(r *telemetry.Registry) {
	geoMetrics.Store(r)
	if r != nil {
		_, bytes := GeometryCacheStats()
		noteArenaBytes(bytes)
	}
}

func metricsReg() *telemetry.Registry {
	return geoMetrics.Load()
}

// noteArenaBytes publishes the live size of the parsed-geometry cache's
// columnar arenas.
func noteArenaBytes(n int) {
	metricsReg().Gauge("spatial_arena_bytes").Set(float64(n))
}
