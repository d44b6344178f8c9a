package pagetable

import "repro/internal/mem"

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
