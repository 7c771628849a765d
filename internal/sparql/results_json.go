package sparql

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"unicode/utf8"

	"applab/internal/rdf"
)

// SPARQL-results-JSON codec. AppendResultsJSON writes the body the
// endpoint serves straight from a result set, byte for byte what
// encoding/json produces for the map form the endpoint has always
// served ({"boolean","head":{"vars"},"results":{"bindings"}} with
// sorted object keys, HTML-escaped strings and a trailing newline), so
// cached bodies, fresh answers and every client parser agree on the
// exact bytes. DecodeResultsJSON is its inverse.

// AppendResultsJSON appends the SPARQL-results-JSON encoding of res to
// dst and returns the extended slice. Row keys and cell keys are sorted
// by byte order, strings are escaped exactly as encoding/json escapes
// them with HTML escaping on (<, >, & become \u003c, \u003e, \u0026;
// invalid UTF-8 becomes \ufffd; U+2028 and U+2029 are escaped), and the
// body ends with a newline. CONSTRUCT output (res.Graph) is not part of
// the encoding.
func AppendResultsJSON(dst []byte, res *Results) []byte {
	dst = append(dst, `{"boolean":`...)
	dst = strconv.AppendBool(dst, res.Bool)
	dst = append(dst, `,"head":{"vars":`...)
	if res.Vars == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, v := range res.Vars {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, v)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `},"results":{"bindings":[`...)

	// Rows almost always bind a subset of the projection, so the sorted
	// projection is the row key order; a row with a key outside it
	// (never produced by the engine, but legal) sorts its own keys.
	sorted := append([]string(nil), res.Vars...)
	sort.Strings(sorted)
	var keys []string
	rowsStart := len(dst)
	for i, b := range res.Bindings {
		if i == sizingRows && len(res.Bindings) > 2*sizingRows {
			// Rows are alike: size the body once from the first ones
			// instead of regrowing (and copying) it as it passes each
			// capacity.
			perRow := (len(dst) - rowsStart) / sizingRows
			dst = slices.Grow(dst, perRow*(len(res.Bindings)-i)*17/16)
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		keys = rowKeys(keys[:0], sorted, b)
		dst = append(dst, '{')
		for j, k := range keys {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, k)
			dst = append(dst, ':')
			dst = appendJSONTerm(dst, b[k])
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}}\n"...)
}

// sizingRows is how many rows AppendResultsJSON encodes before it
// projects the size of the whole body from them.
const sizingRows = 32

// rowKeys appends b's keys in byte order to dst, using the sorted
// projection when it covers the row.
func rowKeys(dst, sorted []string, b Binding) []string {
	n := 0
	for i, v := range sorted {
		if i > 0 && v == sorted[i-1] {
			continue // a repeated projection variable is one key
		}
		if _, ok := b[v]; ok {
			dst = append(dst, v)
			n++
		}
	}
	if n == len(b) {
		return dst
	}
	dst = dst[:0]
	for k := range b {
		dst = append(dst, k)
	}
	sort.Strings(dst)
	return dst
}

// appendJSONTerm appends one results cell. Keys are written in sorted
// order: datatype, type, value, xml:lang. An xsd:string datatype is
// implied and never written.
func appendJSONTerm(dst []byte, t rdf.Term) []byte {
	switch t.Kind {
	case rdf.KindIRI:
		dst = append(dst, `{"type":"uri","value":`...)
	case rdf.KindBlank:
		dst = append(dst, `{"type":"bnode","value":`...)
	default:
		dst = append(dst, '{')
		if t.Datatype != "" && t.Datatype != rdf.XSDString {
			dst = append(dst, `"datatype":`...)
			dst = appendJSONString(dst, t.Datatype)
			dst = append(dst, ',')
		}
		dst = append(dst, `"type":"literal","value":`...)
		dst = appendJSONString(dst, t.Value)
		if t.Lang != "" {
			dst = append(dst, `,"xml:lang":`...)
			dst = appendJSONString(dst, t.Lang)
		}
		return append(dst, '}')
	}
	dst = appendJSONString(dst, t.Value)
	return append(dst, '}')
}

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes encoding/json writes unescaped with
// HTML escaping on: everything printable except ", \, <, > and &.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		safe[b] = true
	}
	for _, b := range `"\<>&` {
		safe[b] = false
	}
	return safe
}()

// appendJSONString appends s as a JSON string, escaped exactly as
// encoding/json escapes it.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		} else if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		} else {
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// jsonResults is the decoding shape of a SPARQL-results-JSON document.
type jsonResults struct {
	Boolean bool `json:"boolean"`
	Head    struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Results struct {
		Bindings []map[string]jsonCell `json:"bindings"`
	} `json:"results"`
}

type jsonCell struct {
	Type     string `json:"type"`
	Value    string `json:"value"`
	Datatype string `json:"datatype"`
	Lang     string `json:"xml:lang"`
}

// term converts a cell back to an RDF term. A literal with neither a
// language tag nor a datatype is an xsd:string; any type other than
// uri and bnode (including the legacy "typed-literal") is a literal.
func (c jsonCell) term() rdf.Term {
	switch c.Type {
	case "uri":
		return rdf.NewIRI(c.Value)
	case "bnode":
		return rdf.NewBlank(c.Value)
	}
	switch {
	case c.Lang != "":
		return rdf.NewLangLiteral(c.Value, c.Lang)
	case c.Datatype != "":
		return rdf.NewTypedLiteral(c.Value, c.Datatype)
	default:
		return rdf.NewLiteral(c.Value)
	}
}

// DecodeResultsJSON parses a SPARQL-results-JSON document — the inverse
// of AppendResultsJSON. It accepts any well-formed document (whitespace,
// key order and unknown fields are free), so it also reads answers from
// other SPARQL endpoints.
func DecodeResultsJSON(body []byte) (*Results, error) {
	var doc jsonResults
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("sparql: bad results document: %v", err)
	}
	res := &Results{
		Vars:     doc.Head.Vars,
		Bool:     doc.Boolean,
		Bindings: make([]Binding, len(doc.Results.Bindings)),
	}
	for i, row := range doc.Results.Bindings {
		b := make(Binding, len(row))
		for v, c := range row {
			b[v] = c.term()
		}
		res.Bindings[i] = b
	}
	return res, nil
}
