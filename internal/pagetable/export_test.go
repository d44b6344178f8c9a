package pagetable

import (
	"fmt"

	"repro/internal/mem"
)

// EffectiveRefs reports, for every frame the given tables map, its
// effective reference count: phys's raw count plus, for each
// fork-shared leaf that maps it, one per table beyond the first linking
// that leaf. It is the count an eager CloneCOW — one reference per
// table entry — would have left, and the one to reason with about who
// maps a frame; tables must include every table linking those leaves.
func EffectiveRefs(phys *mem.Physical, tables ...*Table) map[mem.FrameID]int32 {
	refs := map[mem.FrameID]int32{}
	walkNodes(tables, func(e PTE, links int32) {
		f := e.Frame()
		if _, ok := refs[f]; !ok {
			refs[f] = phys.Refs(f)
		}
		refs[f] += links - 1
	})
	return refs
}

// CheckNodes checks the per-node invariants of every distinct node
// reachable from tables: the occupancy bitmap marks exactly the slots
// holding a kid or a present entry (so a leaf's present count, read
// from it, is exact too), and the cached writable count equals a
// recount. It then takes a node from the pool,
// which must come back fully zeroed but for its link count, and
// returns it. It reports the first violation.
func CheckNodes(tables ...*Table) error {
	seen := map[*node]bool{}
	var check func(n *node, level int) error
	check = func(n *node, level int) error {
		if seen[n] {
			return nil
		}
		seen[n] = true
		var writable int32
		for i := range n.ptes {
			e := n.ptes[i]
			occupied := n.kids[i] != nil || e.Present()
			if used := n.used[i>>6]&(1<<(i&63)) != 0; used != occupied {
				return fmt.Errorf("level-%d node slot %d: used bit %v, kid %v, entry %v", level, i, used, n.kids[i] != nil, e)
			}
			writable += cowable(e)
			if n.kids[i] != nil {
				if err := check(n.kids[i], level-1); err != nil {
					return err
				}
			}
		}
		if writable != n.writable {
			return fmt.Errorf("level-%d node writable count %d, recount %d", level, n.writable, writable)
		}
		return nil
	}
	for _, t := range tables {
		if err := check(t.root, Levels-1); err != nil {
			return err
		}
	}
	n := newNode()
	defer putNode(n)
	if *n != (node{links: 1}) {
		return fmt.Errorf("pooled node not zeroed: links=%d writable=%d used=%x", n.links, n.writable, n.used)
	}
	return nil
}
