package sparql

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"
	"unicode/utf8"

	"applab/internal/rdf"
)

// referenceJSON is the map form the endpoint has always served, encoded
// by encoding/json: the oracle AppendResultsJSON must match byte for
// byte. It mirrors endpoint.ResultsJSON, which this package cannot
// import.
func referenceJSON(t testing.TB, res *Results) []byte {
	t.Helper()
	bindings := make([]map[string]any, len(res.Bindings))
	for i, b := range res.Bindings {
		row := map[string]any{}
		for v, tm := range b {
			cell := map[string]any{"value": tm.Value}
			switch {
			case tm.IsIRI():
				cell["type"] = "uri"
			case tm.IsBlank():
				cell["type"] = "bnode"
			default:
				cell["type"] = "literal"
				if tm.Datatype != "" && tm.Datatype != rdf.XSDString {
					cell["datatype"] = tm.Datatype
				}
				if tm.Lang != "" {
					cell["xml:lang"] = tm.Lang
				}
			}
			row[v] = cell
		}
		bindings[i] = row
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(map[string]any{
		"head":    map[string]any{"vars": res.Vars},
		"results": map[string]any{"bindings": bindings},
		"boolean": res.Bool,
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// canonResults renders a result set order-independently by Term.Key.
func canonResults(res *Results) string {
	rows := make([]string, len(res.Bindings))
	for i, b := range res.Bindings {
		cells := make([]string, 0, len(b))
		for v, tm := range b {
			cells = append(cells, fmt.Sprintf("%q=%q", v, tm.Key()))
		}
		sort.Strings(cells)
		rows[i] = strings.Join(cells, ",")
	}
	sort.Strings(rows)
	return fmt.Sprintf("bool=%v vars=%q\n%s", res.Bool, res.Vars, strings.Join(rows, "\n"))
}

func checkCodec(t *testing.T, res *Results) {
	t.Helper()
	got := AppendResultsJSON(nil, res)
	if want := referenceJSON(t, res); !bytes.Equal(got, want) {
		t.Fatalf("encoding differs from encoding/json:\n got: %s\nwant: %s", got, want)
	}
	back, err := DecodeResultsJSON(got)
	if err != nil {
		t.Fatalf("decode own encoding: %v\n%s", err, got)
	}
	if canonResults(back) != canonResults(res) {
		t.Fatalf("round trip differs:\n got: %s\nwant: %s", canonResults(back), canonResults(res))
	}
}

func TestResultsJSONMatchesEncodingJSON(t *testing.T) {
	wkt := rdf.NewWKT("<http://www.opengis.net/def/crs/EPSG/0/4326> POINT (23.7 37.9)")
	cases := map[string]*Results{
		"empty":     {},
		"ask true":  {Bool: true},
		"no rows":   {Vars: []string{"s"}, Bindings: []Binding{}},
		"empty row": {Vars: []string{"s"}, Bindings: []Binding{{}}},
		"kinds": {Vars: []string{"s", "o", "b", "l", "n"}, Bindings: []Binding{{
			"s": rdf.NewIRI("http://ex/a?x=1&y=<2>"),
			"o": wkt,
			"b": rdf.NewBlank("b0"),
			"l": rdf.NewLangLiteral("Ἀθῆναι", "el"),
			"n": rdf.NewInteger(42),
		}}},
		"unbound cells": {Vars: []string{"z", "a", "m"}, Bindings: []Binding{
			{"z": rdf.NewLiteral("1")},
			{"a": rdf.NewLiteral("2"), "m": rdf.NewLiteral("3")},
		}},
		"key outside projection": {Vars: []string{"a"}, Bindings: []Binding{
			{"a": rdf.NewLiteral("x"), "hidden": rdf.NewLiteral("y")},
		}},
		"repeated projection": {Vars: []string{"a", "a"}, Bindings: []Binding{{"a": rdf.NewLiteral("x")}}},
		"escapes": {Vars: []string{"v"}, Bindings: []Binding{
			{"v": rdf.NewLiteral("quote\" back\\ nl\n cr\r tab\t bs\b ff\f nul\x00 us\x1f del\x7f")},
			{"v": rdf.NewLiteral("ls \u2028 ps \u2029 bad\xff\xfe tail\xe2\x80")},
			{"v": rdf.NewTypedLiteral("x", "")},
		}},
	}
	for name, res := range cases {
		t.Run(name, func(t *testing.T) {
			got := AppendResultsJSON(nil, res)
			if want := referenceJSON(t, res); !bytes.Equal(got, want) {
				t.Fatalf("encoding differs from encoding/json:\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

func TestResultsJSONAppendsToPrefix(t *testing.T) {
	res := &Results{Vars: []string{"s"}, Bindings: []Binding{{"s": rdf.NewIRI("http://ex/a")}}}
	got := AppendResultsJSON([]byte("prefix"), res)
	if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[6:], AppendResultsJSON(nil, res)) {
		t.Fatalf("append lost the prefix: %s", got)
	}
}

func TestDecodeResultsJSON(t *testing.T) {
	// Other endpoints pretty-print, reorder keys, use the legacy
	// "typed-literal" type and omit the xsd:string datatype.
	doc := `{
	  "head": {"vars": ["s", "o"], "link": []},
	  "results": {"bindings": [
	    {"o": {"value": "plain", "type": "literal"}, "s": {"type": "uri", "value": "http://ex/a"}},
	    {"o": {"type": "typed-literal", "datatype": "http://www.w3.org/2001/XMLSchema#integer", "value": "7"}},
	    {"o": {"type": "literal", "value": "hi", "xml:lang": "en"}, "s": {"type": "bnode", "value": "b1"}}
	  ]}
	}`
	res, err := DecodeResultsJSON([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := &Results{Vars: []string{"s", "o"}, Bindings: []Binding{
		{"s": rdf.NewIRI("http://ex/a"), "o": rdf.NewLiteral("plain")},
		{"o": rdf.NewInteger(7)},
		{"s": rdf.NewBlank("b1"), "o": rdf.NewLangLiteral("hi", "en")},
	}}
	if canonResults(res) != canonResults(want) {
		t.Fatalf("decoded:\n%s\nwant:\n%s", canonResults(res), canonResults(want))
	}
	if _, err := DecodeResultsJSON([]byte(`{"results": {"bindings": [`)); err == nil {
		t.Fatal("truncated document decoded")
	}
	ask, err := DecodeResultsJSON([]byte(`{"boolean": true}`))
	if err != nil || !ask.Bool || ask.Vars != nil {
		t.Fatalf("ASK document: %+v, %v", ask, err)
	}
}

// fuzzTerm builds a well-formed term of the kind picked by k from s.
func fuzzTerm(k byte, s, dt, lang string) rdf.Term {
	switch k % 6 {
	case 0:
		return rdf.NewIRI(s)
	case 1:
		return rdf.NewBlank(s)
	case 2:
		return rdf.NewLiteral(s)
	case 3:
		if dt == "" {
			return rdf.NewLiteral(s) // the wire form of a datatype-less literal
		}
		return rdf.NewTypedLiteral(s, dt)
	case 4:
		return rdf.NewLangLiteral(s, lang)
	default:
		return rdf.NewWKT(s)
	}
}

// FuzzResultsJSON is the differential check of the codec: for arbitrary
// variable names and term values, AppendResultsJSON equals encoding/json
// over the map form, and decoding the encoding gives the result set
// back (when every string is valid UTF-8 — encoding/json, and so the
// wire format, replaces invalid bytes with U+FFFD).
func FuzzResultsJSON(f *testing.F) {
	f.Add("s", "o", "http://ex/a", "<http://www.opengis.net/def/crs/EPSG/0/4326> POINT (1 2)",
		rdf.XSDInteger, "en", byte(0x50), true)
	f.Add("a&b", "c<d>", "tab\there", "nul\x00 del\x7f", "", "", byte(0x23), false)
	f.Add("x", "x", "ls\u2028ps\u2029", "bad\xff\xfe", "dt\"", "de-CH", byte(0x14), false)
	f.Add("", "\xc0", "", "\\u2028", rdf.XSDString, "", byte(0xff), true)
	f.Fuzz(func(t *testing.T, v1, v2, val1, val2, dt, lang string, kinds byte, boolean bool) {
		res := &Results{Vars: []string{v1, v2}, Bool: boolean}
		res.Bindings = []Binding{
			{v1: fuzzTerm(kinds, val1, dt, lang), v2: fuzzTerm(kinds>>3, val2, dt, lang)},
			{v2: fuzzTerm(kinds>>1, val1+val2, dt, lang)},
			{},
		}
		if kinds&0x80 != 0 {
			res.Vars = nil // SELECT-less shapes: ASK, or rows with no projection
		}
		got := AppendResultsJSON(nil, res)
		if want := referenceJSON(t, res); !bytes.Equal(got, want) {
			t.Fatalf("encoding differs from encoding/json:\n got: %q\nwant: %q", got, want)
		}
		for _, s := range []string{v1, v2, val1, val2, dt, lang} {
			if !utf8.ValidString(s) {
				return
			}
		}
		checkCodec(t, res)
	})
}
