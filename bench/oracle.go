package main

// The answer oracle. Every HTTP answer is reduced to a canonical form —
// row count plus a hash of the sorted rows — and compared after the run
// with the answer sparql.EvalSeed, the seed evaluator, gives over an
// in-memory store holding the same data.

import (
	"encoding/json"
	"hash/crc32"
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"applab/internal/rdf"
	"applab/internal/sparql"
)

// cell is one SPARQL-results-JSON binding value.
type cell struct {
	Type     string `json:"type"`
	Value    string `json:"value"`
	Datatype string `json:"datatype"`
	Lang     string `json:"xml:lang"`
}

// termCell renders a term the way the endpoint encodes it.
func termCell(t rdf.Term) cell {
	c := cell{Value: t.Value}
	switch {
	case t.IsIRI():
		c.Type = "uri"
	case t.IsBlank():
		c.Type = "bnode"
	default:
		c.Type = "literal"
		if t.Datatype != "" && t.Datatype != rdf.XSDString {
			c.Datatype = t.Datatype
		}
		c.Lang = t.Lang
	}
	return c
}

// answer is the canonical form of a result set.
type answer struct {
	rows int
	hash uint64
}

func digest(vars []string, rows []string) answer {
	sort.Strings(rows)
	h := fnv.New64a()
	h.Write([]byte(strings.Join(vars, "\x1f")))
	for _, r := range rows {
		h.Write([]byte{0x1e})
		h.Write([]byte(r))
	}
	return answer{rows: len(rows), hash: h.Sum64()}
}

func canonRow(vars []string, get func(v string) (cell, bool)) string {
	var sb strings.Builder
	for _, v := range vars {
		c, ok := get(v)
		if ok {
			sb.WriteString(c.Type + "\x1d" + c.Value + "\x1d" + c.Datatype + "\x1d" + c.Lang)
		}
		sb.WriteByte(0x1f)
	}
	return sb.String()
}

func sortedVars(vars []string) []string {
	out := append([]string(nil), vars...)
	sort.Strings(out)
	return out
}

// canonJSON canonicalizes a SPARQL-results-JSON response body.
func canonJSON(body []byte) (answer, error) {
	var doc struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results struct {
			Bindings []map[string]cell `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return answer{}, err
	}
	vars := sortedVars(doc.Head.Vars)
	rows := make([]string, len(doc.Results.Bindings))
	for i, b := range doc.Results.Bindings {
		rows[i] = canonRow(vars, func(v string) (cell, bool) { c, ok := b[v]; return c, ok })
	}
	return digest(vars, rows), nil
}

// canonResults canonicalizes an evaluated result set.
func canonResults(res *sparql.Results) answer {
	vars := sortedVars(res.Vars)
	rows := make([]string, len(res.Bindings))
	for i, b := range res.Bindings {
		rows[i] = canonRow(vars, func(v string) (cell, bool) {
			t, ok := b[v]
			if !ok || t.IsZero() {
				return cell{}, false
			}
			return termCell(t), true
		})
	}
	return digest(vars, rows)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// verifier records the canonical answers clients saw. A body already
// seen for its query is recognised by checksum and length, so repeated
// answers cost the client one checksum, not a JSON decode.
type verifier struct {
	mu      sync.Mutex
	byQuery map[string]*seenQuery
	queries []*seenQuery
}

type seenQuery struct {
	id      int
	query   string
	byBody  map[uint64]int // length<<32 | crc32c -> index into answers
	answers []answer
}

func newVerifier() *verifier { return &verifier{byQuery: map[string]*seenQuery{}} }

// check files one response body and returns the query's ID and the
// index of its canonical answer.
func (v *verifier) check(query string, body []byte) (qid, aid int, err error) {
	key := uint64(len(body))<<32 | uint64(crc32.Checksum(body, castagnoli))
	v.mu.Lock()
	s := v.byQuery[query]
	if s == nil {
		s = &seenQuery{id: len(v.queries), query: query, byBody: map[uint64]int{}}
		v.byQuery[query] = s
		v.queries = append(v.queries, s)
	}
	a, ok := s.byBody[key]
	v.mu.Unlock()
	if ok {
		return s.id, a, nil
	}
	ans, err := canonJSON(body)
	if err != nil {
		return s.id, -1, err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if a, ok := s.byBody[key]; ok {
		return s.id, a, nil
	}
	s.answers = append(s.answers, ans)
	s.byBody[key] = len(s.answers) - 1
	return s.id, len(s.answers) - 1, nil
}

// judge evaluates every distinct query with the seed evaluator over src
// and returns the (query, answer) pairs that disagree with it.
func (v *verifier) judge(src sparql.Source) (map[[2]int]bool, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	bad := map[[2]int]bool{}
	for _, s := range v.queries {
		res, err := sparql.EvalSeed(src, s.query)
		if err != nil {
			return nil, err
		}
		want := canonResults(res)
		for i, got := range s.answers {
			if got != want {
				bad[[2]int{s.id, i}] = true
			}
		}
	}
	return bad, nil
}

// distinct reports the number of distinct queries seen.
func (v *verifier) distinct() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.queries)
}
