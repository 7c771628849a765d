package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"applab/internal/endpoint"
	"applab/internal/rdf"
	"applab/internal/sparql"
	"applab/internal/strabon"
	"applab/internal/workload"
)

func drawN(wl string, seed int64, n int) []request {
	g := newGenerator(wl, seed, genInputs(wl, seed))
	out := make([]request, n)
	for i := range out {
		out[i] = g.draw()
	}
	return out
}

func TestSameSeedSameRequests(t *testing.T) {
	for wl := range workloads {
		a, b := drawN(wl, 1, 300), drawN(wl, 1, 300)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave two different request sequences", wl)
		}
		if reflect.DeepEqual(a, drawN(wl, 2, 300)) {
			t.Errorf("%s: seeds 1 and 2 gave the same request sequence", wl)
		}
	}
}

func compositeBytes(t *testing.T, seed int64, k int) string {
	t.Helper()
	ts, err := workload.LAIGridToRDF(compositeDataset(genInputs("ingest", seed).compVals, k), "LAI")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, tr := range ts {
		sb.WriteString(tr.String())
	}
	return sb.String()
}

func TestSameSeedSameWrites(t *testing.T) {
	for _, k := range []int{2, 7, 40} {
		a := compositeBytes(t, 1, k)
		if a != compositeBytes(t, 1, k) {
			t.Errorf("composite %d: seed 1 gave two different write batches", k)
		}
		if a == compositeBytes(t, 2, k) {
			t.Errorf("composite %d: seeds 1 and 2 gave the same write batch", k)
		}
		if !strings.Contains(a, "/obs/"+strconv.Itoa(k)+"/") {
			t.Errorf("composite %d: observations are not named by its time index", k)
		}
	}
}

func TestTailSelection(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	cases := []struct {
		n      int
		pct    float64
		value  float64
		beyond int
	}{
		{1000, 90, 900, 100},
		{100, 90, 90, 10},
		{99, 75, 75, 24},
		{40, 75, 30, 10},
		{20, 50, 10, 10},
		{5, 100, 5, 0},
	}
	for _, c := range cases {
		pct, v, beyond := tail(seq(c.n))
		if pct != c.pct || v != c.value || beyond != c.beyond {
			t.Errorf("n=%d: tail = p%g %g with %d beyond, want p%g %g with %d", c.n, pct, v, beyond, c.pct, c.value, c.beyond)
		}
		if c.pct < 100 && beyond < tailSamples {
			t.Errorf("n=%d: only %d samples beyond the tail", c.n, beyond)
		}
	}
}

// metricName is the shape every reported metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, metricName)
		}
		if seen[name] {
			t.Errorf("metric name %q used twice", name)
		}
		seen[name] = true
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(m.name)
	}
	rs := &runState{d: &loader{tr: &tracer{}}}
	for name := range rs.layerExtras() {
		check(name)
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkFileMatches(t *testing.T) {
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &spec); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		listed[w.Name] = true
	}
	// ingest is run by hand only: README.md says why it is not gated.
	for name := range workloads {
		if !listed[name] && name != "ingest" {
			t.Errorf("BENCHMARK.json does not list workload %q", name)
		}
	}
	same := func(what string, file []struct{ Name, Unit string }, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark prints %d", what, len(file), len(code))
			return
		}
		for i := range code {
			if file[i].Name != code[i].name || file[i].Unit != code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]",
					what, i, file[i].Name, file[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestOracleRejectsCorruptedAnswer(t *testing.T) {
	in := genInputs("remote", 3)
	ts, err := loadedTriples("remote", in)
	if err != nil {
		t.Fatal(err)
	}
	store := strabon.New()
	store.AddAll(ts)
	q := listing3Value(iri(rdf.NSLAI+"lai"), valueQuantile(in.laiVals, 0.5))
	res, err := sparql.Eval(store, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) < 2 {
		t.Fatalf("probe query returned %d rows", len(res.Bindings))
	}
	good, err := json.Marshal(endpoint.ResultsJSON(res))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := canonJSON(good); err != nil || got != canonResults(res) {
		t.Fatalf("canonical form of the encoded answer %v (err %v) differs from the evaluated one %v", got, err, canonResults(res))
	}

	first := res.Bindings[0]["v"].Value
	corrupted := map[string][]byte{
		"changed value": bytes.Replace(good, []byte(`"`+first+`"`), []byte(`"`+first+`1"`), 1),
		"dropped row":   mustDropRow(t, good),
	}
	v := newVerifier()
	if _, _, err := v.check(q, good); err != nil {
		t.Fatal(err)
	}
	for name, body := range corrupted {
		if bytes.Equal(body, good) {
			t.Fatalf("%s: corruption left the body unchanged", name)
		}
		if _, _, err := v.check(q, body); err != nil {
			t.Fatal(err)
		}
	}
	bad, err := v.judge(store)
	if err != nil {
		t.Fatal(err)
	}
	if bad[[2]int{0, 0}] {
		t.Error("oracle rejected the correct answer")
	}
	if len(bad) != len(corrupted) {
		t.Errorf("oracle rejected %d corrupted answers, want %d", len(bad), len(corrupted))
	}
}

func mustDropRow(t *testing.T, body []byte) []byte {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	results := doc["results"].(map[string]any)
	rows := results["bindings"].([]any)
	results["bindings"] = rows[1:]
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
