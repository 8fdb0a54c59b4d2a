package sdg

import (
	"fmt"
	"slices"
	"strings"
)

// DOT renders the live graph in Graphviz dot format for visual
// inspection of a defect's synchronization dependencies. Vertices are
// grouped into per-thread clusters in program order; edge styles encode
// the kinds (type-D solid red, type-C dashed blue, type-P gray, type-V
// dotted green).
func (g *Graph) DOT(title string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph Gs {\n")
	fmt.Fprintf(&sb, "  label=%q; rankdir=TB; node [shape=box, fontsize=10];\n", title)

	// Cluster vertices by thread, in insertion (trace) order: threads by
	// their first vertex, each thread's vertices as inserted.
	threads := make([]string, 0, len(g.byThread))
	for thread := range g.byThread {
		threads = append(threads, thread)
	}
	slices.SortFunc(threads, func(a, b string) int { return g.byThread[a][0] - g.byThread[b][0] })
	cluster := 0
	for _, thread := range threads {
		ids := g.byThread[thread]
		live := make([]int, 0, len(ids))
		for _, id := range ids {
			if !g.dead[id] {
				live = append(live, id)
			}
		}
		if len(live) == 0 {
			continue
		}
		fmt.Fprintf(&sb, "  subgraph cluster_%d {\n    label=%q; color=gray;\n", cluster, thread)
		cluster++
		for _, id := range live {
			v := g.verts[id]
			fmt.Fprintf(&sb, "    n%d [label=%q];\n", id, fmt.Sprintf("%s#%d\n%s", v.Key.Site, v.Key.Occ, v.Lock))
		}
		fmt.Fprintf(&sb, "  }\n")
	}

	for u := range g.verts {
		if g.dead[u] {
			continue
		}
		for ei := g.outHead[u]; ei >= 0; ei = g.edges[ei].next {
			e := g.edges[ei]
			if g.dead[e.to] {
				continue
			}
			fmt.Fprintf(&sb, "  n%d -> n%d [%s];\n", u, e.to, dotStyle(e.kind))
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// dotStyle maps an edge kind mask to Graphviz attributes; the dominant
// kind (D > V > C > P) picks the style.
func dotStyle(k Kind) string {
	switch {
	case k&D != 0:
		return `color=red, penwidth=2, label="D"`
	case k&V != 0:
		return `color=darkgreen, style=dotted, label="V"`
	case k&C != 0:
		return `color=blue, style=dashed, label="C"`
	default:
		return `color=gray`
	}
}
