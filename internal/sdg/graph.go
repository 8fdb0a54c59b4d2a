package sdg

import (
	"fmt"
	"sort"
	"strings"

	"wolf/internal/trace"
)

// edgeRec is one pooled adjacency record: a link in a vertex's out- or
// in-list. Records live in a single per-graph slice instead of one
// slice per vertex, which keeps a build to a handful of allocations
// even for the thousands of program-order edges long prefixes produce.
type edgeRec struct {
	to   int32
	next int32 // index of the next record in the same list, -1 at the end
	kind Kind
}

// Graph is a synchronization dependency graph. Vertices are interned to
// dense integers so construction and per-replay cloning stay cheap even
// for the large graphs long traces produce (the paper's Vs statistic
// reaches the thousands).
type Graph struct {
	ids      map[trace.Key]int
	verts    []Vertex
	dead     []bool
	edges    []edgeRec // shared pool for out- and in-lists
	outHead  []int32
	outTail  []int32
	inHead   []int32
	inTail   []int32
	byThread map[string][]int
	live     int
}

// newGraph returns an empty graph sized for about n vertices.
func newGraph(n int) *Graph {
	return &Graph{
		ids:      make(map[trace.Key]int, n),
		verts:    make([]Vertex, 0, n),
		dead:     make([]bool, 0, n),
		edges:    make([]edgeRec, 0, 4*n),
		outHead:  make([]int32, 0, n),
		outTail:  make([]int32, 0, n),
		inHead:   make([]int32, 0, n),
		inTail:   make([]int32, 0, n),
		byThread: make(map[string][]int, 4),
	}
}

// intern returns the id for key, creating the vertex if needed.
func (g *Graph) intern(key trace.Key, lock string) int {
	if id, ok := g.ids[key]; ok {
		return id
	}
	id := len(g.verts)
	g.ids[key] = id
	g.verts = append(g.verts, Vertex{Key: key, Lock: lock})
	g.dead = append(g.dead, false)
	g.outHead = append(g.outHead, -1)
	g.outTail = append(g.outTail, -1)
	g.inHead = append(g.inHead, -1)
	g.inTail = append(g.inTail, -1)
	g.byThread[key.Thread] = append(g.byThread[key.Thread], id)
	g.live++
	return id
}

// internData returns the id for a data event's vertex, creating it with
// the event's variable as the "lock" label.
func (g *Graph) internData(de *trace.DataEvent) int {
	return g.intern(de.Key, "var:"+de.Var)
}

// addEdgeIDs records u → v, merging kinds; self edges are ignored.
func (g *Graph) addEdgeIDs(u, v int, k Kind) {
	if u == v {
		return
	}
	for ei := g.outHead[u]; ei >= 0; ei = g.edges[ei].next {
		if int(g.edges[ei].to) == v {
			g.edges[ei].kind |= k
			for ej := g.inHead[v]; ej >= 0; ej = g.edges[ej].next {
				if int(g.edges[ej].to) == u {
					g.edges[ej].kind |= k
					break
				}
			}
			return
		}
	}
	g.appendRec(g.outHead, g.outTail, u, edgeRec{to: int32(v), next: -1, kind: k})
	g.appendRec(g.inHead, g.inTail, v, edgeRec{to: int32(u), next: -1, kind: k})
}

// appendRec links a new record at the tail of vertex at's list, keeping
// iteration in insertion order (replay steering and dot output depend
// on it).
func (g *Graph) appendRec(head, tail []int32, at int, rec edgeRec) {
	ei := int32(len(g.edges))
	g.edges = append(g.edges, rec)
	if tail[at] >= 0 {
		g.edges[tail[at]].next = ei
	} else {
		head[at] = ei
	}
	tail[at] = ei
}

// Size returns the number of live vertices (the paper's Vs statistic).
func (g *Graph) Size() int { return g.live }

// Edges returns the number of distinct live (u, v) pairs.
func (g *Graph) Edges() int {
	n := 0
	for u := range g.verts {
		if g.dead[u] {
			continue
		}
		for ei := g.outHead[u]; ei >= 0; ei = g.edges[ei].next {
			if !g.dead[g.edges[ei].to] {
				n++
			}
		}
	}
	return n
}

// Empty reports whether no vertices remain.
func (g *Graph) Empty() bool { return g.live == 0 }

// Vertex returns the live vertex at key, or nil. The pointer aliases
// graph storage and is valid until the graph is released.
func (g *Graph) Vertex(key trace.Key) *Vertex {
	if id, ok := g.ids[key]; ok && !g.dead[id] {
		return &g.verts[id]
	}
	return nil
}

// HasEdge reports whether u → v exists (live) with any kind in mask.
func (g *Graph) HasEdge(u, v trace.Key, mask Kind) bool {
	ui, ok := g.ids[u]
	if !ok || g.dead[ui] {
		return false
	}
	vi, ok := g.ids[v]
	if !ok || g.dead[vi] {
		return false
	}
	for ei := g.outHead[ui]; ei >= 0; ei = g.edges[ei].next {
		if int(g.edges[ei].to) == vi {
			return g.edges[ei].kind&mask != 0
		}
	}
	return false
}

// Cyclic reports whether Gs contains a cycle through live edges with a
// kind in mask, which proves the associated potential deadlock is a
// false positive (Algorithm 3, line 30). Every type-V edge touches a
// data vertex, and data vertices carry no other kind, so Cyclic(k&^V)
// on a graph built with k answers what a build with k&^V would: one
// build decides whether the value-flow edges caused a refutation.
func (g *Graph) Cyclic(mask Kind) bool {
	const white, gray, black = 0, 1, 2
	color := make([]int8, len(g.verts))
	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = gray
		for ei := g.outHead[u]; ei >= 0; ei = g.edges[ei].next {
			e := g.edges[ei]
			if e.kind&mask == 0 || g.dead[e.to] {
				continue
			}
			switch color[e.to] {
			case gray:
				return true // back edge: a cycle
			case white:
				if dfs(int(e.to)) {
					return true
				}
			}
		}
		color[u] = black
		return false
	}
	for u := range g.verts {
		if color[u] == white && !g.dead[u] && dfs(u) {
			return true
		}
	}
	return false
}

// sortedIDs returns live vertex ids in deterministic key order.
func (g *Graph) sortedIDs() []int {
	out := make([]int, 0, g.live)
	for id := range g.verts {
		if !g.dead[id] {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return g.verts[out[i]].Key.Less(g.verts[out[j]].Key)
	})
	return out
}

// CrossThreadBlockers returns the source vertices of live edges into v
// from other threads — the dependencies that must be satisfied before
// the acquisition at v may execute (Algorithm 4, line 18).
func (g *Graph) CrossThreadBlockers(v trace.Key) []trace.Key {
	vi, ok := g.ids[v]
	if !ok || g.dead[vi] {
		return nil
	}
	var out []trace.Key
	for ei := g.inHead[vi]; ei >= 0; ei = g.edges[ei].next {
		u := int(g.edges[ei].to)
		if !g.dead[u] && g.verts[u].Key.Thread != v.Thread {
			out = append(out, g.verts[u].Key)
		}
	}
	return out
}

// Blocked reports whether the acquisition at v must wait for another
// thread's acquisition.
func (g *Graph) Blocked(v trace.Key) bool {
	vi, ok := g.ids[v]
	if !ok || g.dead[vi] {
		return false
	}
	for ei := g.inHead[vi]; ei >= 0; ei = g.edges[ei].next {
		u := int(g.edges[ei].to)
		if !g.dead[u] && g.verts[u].Key.Thread != v.Thread {
			return true
		}
	}
	return false
}

// removeID tombstones a vertex; incident edges die with it because
// traversals skip dead endpoints.
func (g *Graph) removeID(id int) {
	if g.dead[id] {
		return
	}
	g.dead[id] = true
	g.live--
}

// Executed informs the graph that the acquisition at key ran: the vertex
// and every vertex that reaches it are removed (Algorithm 4, lines
// 22-23). Ancestors either executed already or were skipped by divergent
// control flow — the paper's vertex-skipping rule — so they are stale
// either way. A key with no live vertex is a no-op.
func (g *Graph) Executed(key trace.Key) {
	id, ok := g.ids[key]
	if !ok || g.dead[id] {
		return
	}
	stack := []int{id}
	seen := make([]bool, len(g.verts))
	seen[id] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for ei := g.inHead[x]; ei >= 0; ei = g.edges[ei].next {
			u := int(g.edges[ei].to)
			if !seen[u] && !g.dead[u] {
				seen[u] = true
				stack = append(stack, u)
			}
		}
		g.removeID(x)
	}
}

// RemoveThread deletes every remaining vertex of thread (without the
// ancestor cascade): the thread terminated, so its pending acquisitions
// can never execute and must not block other threads forever.
func (g *Graph) RemoveThread(thread string) {
	for _, id := range g.byThread[thread] {
		g.removeID(id)
	}
}

// ThreadVertices returns the live vertices of thread in trace order.
func (g *Graph) ThreadVertices(thread string) []trace.Key {
	var out []trace.Key
	for _, id := range g.byThread[thread] {
		if !g.dead[id] {
			out = append(out, g.verts[id].Key)
		}
	}
	return out
}

// Clone returns an independent copy for one replay attempt. Vertex and
// edge storage is shared: removal only tombstones entries in the dead
// bitmap, and addEdgeIDs is never called after Build, so sharing is
// safe; only the dead bitmap and live count are duplicated.
func (g *Graph) Clone() *Graph {
	return &Graph{
		ids:      g.ids,
		verts:    g.verts,
		dead:     append([]bool(nil), g.dead...),
		edges:    g.edges,
		outHead:  g.outHead,
		outTail:  g.outTail,
		inHead:   g.inHead,
		inTail:   g.inTail,
		byThread: g.byThread,
		live:     g.live,
	}
}

// String renders live vertices and edges deterministically.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, id := range g.sortedIDs() {
		fmt.Fprintf(&sb, "%v", &g.verts[id])
		var es []string
		for ei := g.outHead[id]; ei >= 0; ei = g.edges[ei].next {
			e := g.edges[ei]
			if !g.dead[e.to] {
				es = append(es, fmt.Sprintf("-%v->%v", e.kind, g.verts[e.to].Key))
			}
		}
		sort.Strings(es)
		for _, e := range es {
			sb.WriteString(" ")
			sb.WriteString(e)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
