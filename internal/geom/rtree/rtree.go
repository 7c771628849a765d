// Package rtree provides an R-tree spatial index over geometry envelopes.
// It supports incremental insertion (quadratic split) and bulk loading
// (sort-tile-recursive packing), and answers envelope-intersection and
// nearest-neighbour queries. It is the repo's one spatial blocking
// structure: the Strabon store's geo:asWKT index, the SPARQL spatial-join
// operator, interlink's spatial link discovery and the Geographica
// baseline systems all build on it.
package rtree

import (
	"container/heap"
	"math"
	"sort"

	"applab/internal/geom"
)

const (
	maxEntries = 16
	minEntries = maxEntries * 2 / 5
)

// Item is a value stored in the tree together with its envelope.
type Item struct {
	Env  geom.Envelope
	Data any
}

type node struct {
	leaf     bool
	env      geom.Envelope
	items    []Item  // leaf payload
	children []*node // internal children
}

// Tree is an R-tree. The zero value is not usable; call New or Bulk.
type Tree struct {
	root *node
	size int
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &node{leaf: true, env: geom.EmptyEnvelope()}}
}

// Bulk builds a tree from items using sort-tile-recursive packing, which
// yields better query performance than repeated insertion.
func Bulk(items []Item) *Tree {
	t := &Tree{}
	if len(items) == 0 {
		t.root = &node{leaf: true, env: geom.EmptyEnvelope()}
		return t
	}
	leaves := packLeaves(items)
	t.size = len(items)
	for len(leaves) > 1 {
		leaves = packNodes(leaves)
	}
	t.root = leaves[0]
	return t
}

func packLeaves(items []Item) []*node {
	sorted := make([]Item, len(items))
	copy(sorted, items)
	nLeaves := (len(sorted) + maxEntries - 1) / maxEntries
	nSlices := int(math.Ceil(math.Sqrt(float64(nLeaves))))
	sliceCap := nSlices * maxEntries
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].Env.Center().X < sorted[j].Env.Center().X
	})
	var leaves []*node
	for start := 0; start < len(sorted); start += sliceCap {
		end := start + sliceCap
		if end > len(sorted) {
			end = len(sorted)
		}
		slice := sorted[start:end]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].Env.Center().Y < slice[j].Env.Center().Y
		})
		for s := 0; s < len(slice); s += maxEntries {
			e := s + maxEntries
			if e > len(slice) {
				e = len(slice)
			}
			n := &node{leaf: true, env: geom.EmptyEnvelope()}
			n.items = append(n.items, slice[s:e]...)
			for _, it := range n.items {
				n.env = n.env.Extend(it.Env)
			}
			leaves = append(leaves, n)
		}
	}
	return leaves
}

func packNodes(nodes []*node) []*node {
	sort.Slice(nodes, func(i, j int) bool {
		return nodes[i].env.Center().X < nodes[j].env.Center().X
	})
	var out []*node
	for start := 0; start < len(nodes); start += maxEntries {
		end := start + maxEntries
		if end > len(nodes) {
			end = len(nodes)
		}
		n := &node{env: geom.EmptyEnvelope()}
		n.children = append(n.children, nodes[start:end]...)
		for _, c := range n.children {
			n.env = n.env.Extend(c.env)
		}
		out = append(out, n)
	}
	return out
}

// Len returns the number of stored items.
func (t *Tree) Len() int { return t.size }

// Insert adds an item to the tree.
func (t *Tree) Insert(env geom.Envelope, data any) {
	t.size++
	leaf := t.chooseLeaf(t.root, env)
	leaf.items = append(leaf.items, Item{env, data})
	leaf.env = leaf.env.Extend(env)
	if len(leaf.items) > maxEntries {
		t.splitUpward(leaf)
	} else {
		t.adjustUpward(leaf, env)
	}
}

// chooseLeaf descends to the leaf whose envelope needs the least enlargement.
func (t *Tree) chooseLeaf(n *node, env geom.Envelope) *node {
	for !n.leaf {
		var best *node
		bestGrow := math.Inf(1)
		for _, c := range n.children {
			grow := c.env.Extend(env).Area() - c.env.Area()
			if grow < bestGrow || (grow == bestGrow && best != nil && c.env.Area() < best.env.Area()) {
				bestGrow = grow
				best = c
			}
		}
		n = best
	}
	return n
}

// parentOf finds the parent of target beneath n (nil when target is root).
func (t *Tree) parentOf(n, target *node) *node {
	if n.leaf {
		return nil
	}
	for _, c := range n.children {
		if c == target {
			return n
		}
	}
	for _, c := range n.children {
		if !c.leaf || c == target {
			if p := t.parentOf(c, target); p != nil {
				return p
			}
		}
	}
	return nil
}

func (t *Tree) splitUpward(n *node) {
	for {
		a, b := splitNode(n)
		parent := t.parentOf(t.root, n)
		if parent == nil {
			t.root = &node{children: []*node{a, b}, env: a.env.Extend(b.env)}
			return
		}
		// Replace n with a, add b.
		for i, c := range parent.children {
			if c == n {
				parent.children[i] = a
				break
			}
		}
		parent.children = append(parent.children, b)
		parent.env = geom.EmptyEnvelope()
		for _, c := range parent.children {
			parent.env = parent.env.Extend(c.env)
		}
		if len(parent.children) <= maxEntries {
			t.adjustUpward(parent, parent.env)
			return
		}
		n = parent
	}
}

func (t *Tree) adjustUpward(n *node, env geom.Envelope) {
	for {
		p := t.parentOf(t.root, n)
		if p == nil {
			return
		}
		p.env = p.env.Extend(env)
		n = p
	}
}

// splitNode performs a quadratic split of an overflowing node.
func splitNode(n *node) (*node, *node) {
	if n.leaf {
		seedsA, seedsB := quadraticSeeds(len(n.items), func(i int) geom.Envelope { return n.items[i].Env })
		a := &node{leaf: true, env: geom.EmptyEnvelope()}
		b := &node{leaf: true, env: geom.EmptyEnvelope()}
		assign := func(dst *node, it Item) {
			dst.items = append(dst.items, it)
			dst.env = dst.env.Extend(it.Env)
		}
		assign(a, n.items[seedsA])
		assign(b, n.items[seedsB])
		for i, it := range n.items {
			if i == seedsA || i == seedsB {
				continue
			}
			if preferA(a, b, it.Env) {
				assign(a, it)
			} else {
				assign(b, it)
			}
		}
		return a, b
	}
	seedsA, seedsB := quadraticSeeds(len(n.children), func(i int) geom.Envelope { return n.children[i].env })
	a := &node{env: geom.EmptyEnvelope()}
	b := &node{env: geom.EmptyEnvelope()}
	assign := func(dst *node, c *node) {
		dst.children = append(dst.children, c)
		dst.env = dst.env.Extend(c.env)
	}
	assign(a, n.children[seedsA])
	assign(b, n.children[seedsB])
	for i, c := range n.children {
		if i == seedsA || i == seedsB {
			continue
		}
		if preferA(a, b, c.env) {
			assign(a, c)
		} else {
			assign(b, c)
		}
	}
	return a, b
}

func preferA(a, b *node, env geom.Envelope) bool {
	// Keep minimum fill, then least enlargement.
	remA := maxEntries - len(a.items) - len(a.children)
	remB := maxEntries - len(b.items) - len(b.children)
	if remA <= maxEntries-minEntries && remB > maxEntries-minEntries {
		return false
	}
	if remB <= maxEntries-minEntries && remA > maxEntries-minEntries {
		return true
	}
	growA := a.env.Extend(env).Area() - a.env.Area()
	growB := b.env.Extend(env).Area() - b.env.Area()
	return growA <= growB
}

func quadraticSeeds(n int, envAt func(int) geom.Envelope) (int, int) {
	worst := -math.MaxFloat64
	si, sj := 0, 1
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := envAt(i).Extend(envAt(j)).Area() - envAt(i).Area() - envAt(j).Area()
			if d > worst {
				worst = d
				si, sj = i, j
			}
		}
	}
	return si, sj
}

// Search calls fn for every item whose envelope intersects query. Returning
// false from fn stops the search early.
func (t *Tree) Search(query geom.Envelope, fn func(Item) bool) {
	searchNode(t.root, query, fn)
}

func searchNode(n *node, q geom.Envelope, fn func(Item) bool) bool {
	if !n.env.Intersects(q) {
		return true
	}
	if n.leaf {
		for _, it := range n.items {
			if it.Env.Intersects(q) {
				if !fn(it) {
					return false
				}
			}
		}
		return true
	}
	for _, c := range n.children {
		if !searchNode(c, q, fn) {
			return false
		}
	}
	return true
}

// SearchAll returns every item whose envelope intersects query.
func (t *Tree) SearchAll(query geom.Envelope) []Item {
	var out []Item
	t.Search(query, func(it Item) bool {
		out = append(out, it)
		return true
	})
	return out
}

// Nearest returns up to k items closest (by envelope distance) to p,
// nearest first.
func (t *Tree) Nearest(p geom.Point, k int) []Item {
	if t.size == 0 || k <= 0 {
		return nil
	}
	pq := &nnQueue{}
	heap.Init(pq)
	heap.Push(pq, nnEntry{dist: envDist(t.root.env, p), node: t.root})
	var out []Item
	for pq.Len() > 0 && len(out) < k {
		e := heap.Pop(pq).(nnEntry)
		switch {
		case e.node != nil && e.node.leaf:
			for _, it := range e.node.items {
				heap.Push(pq, nnEntry{dist: envDist(it.Env, p), item: &it})
			}
		case e.node != nil:
			for _, c := range e.node.children {
				heap.Push(pq, nnEntry{dist: envDist(c.env, p), node: c})
			}
		default:
			out = append(out, *e.item)
		}
	}
	return out
}

func envDist(e geom.Envelope, p geom.Point) float64 {
	dx := math.Max(0, math.Max(e.MinX-p.X, p.X-e.MaxX))
	dy := math.Max(0, math.Max(e.MinY-p.Y, p.Y-e.MaxY))
	return math.Hypot(dx, dy)
}

type nnEntry struct {
	dist float64
	node *node
	item *Item
}

type nnQueue []nnEntry

func (q nnQueue) Len() int           { return len(q) }
func (q nnQueue) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q nnQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *nnQueue) Push(x any)        { *q = append(*q, x.(nnEntry)) }
func (q *nnQueue) Pop() any          { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }

// Height returns the tree height (1 for a single leaf); for diagnostics.
func (t *Tree) Height() int {
	h := 1
	n := t.root
	for !n.leaf {
		h++
		n = n.children[0]
	}
	return h
}
