package pagetable

import "repro/internal/mem"

// NodeRefs counts, for every frame the given tables map, the frame
// references their page-table nodes hold: one per present entry of each
// distinct node, so a fork-shared leaf counts once however many tables
// link it. Passed every live table of a machine, it is what
// mem.Physical.Refs must report for each frame — the
// refcount-conservation invariant.
func NodeRefs(tables ...*Table) map[mem.FrameID]int32 {
	refs := map[mem.FrameID]int32{}
	walkNodes(tables, func(e PTE, _ int32) { refs[e.Frame()]++ })
	return refs
}

// walkNodes calls fn for every present leaf entry (huge entries
// included) of every distinct node reachable from tables, with the
// number of those tables linking the node: its link count, or 1 for a
// shared node, which one table of a machine links.
func walkNodes(tables []*Table, fn func(e PTE, links int32)) {
	seen := map[*node]bool{}
	var walk func(n *node, level int)
	walk = func(n *node, level int) {
		if seen[n] {
			return
		}
		seen[n] = true
		links := max(n.links, 1)
		for i := range n.slots {
			if e := n.ptes[i]; e.Present() && (level == 0 || e.Huge()) {
				fn(e, links)
			} else {
				walk(n.kids[i], level-1)
			}
		}
	}
	for _, t := range tables {
		walk(t.root, Levels-1)
	}
}
