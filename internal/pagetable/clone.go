package pagetable

import (
	"repro/internal/cost"
	"repro/internal/mem"
)

// CloneHost duplicates the table's entire logical state — every radix
// node, PTE, counter, and the TLB — into a new table bound to the
// clone machine's physical memory and meter, without copying a single
// node: the clone aliases the source's radix tree, with every node
// marked shared (link count 0, see node.links) so the first write on
// any path copies just that path's nodes out (ownedCopy). Unlike
// CloneCOW this is a host-side operation — it charges nothing and
// moves no logical refcount (the counts travel wholesale inside the
// cloned Physical) — so stamping a machine costs O(1) here regardless
// of how much is mapped.
//
// markSrc selects whether the source's nodes are (re)marked shared.
// A snapshot into an immutable template passes true: the live source
// keeps running and must break sharing before writing nodes the
// template now aliases. Stamping from a frozen template passes false —
// its tree was marked when the template was made, so the stamp only
// reads it and concurrent stamps remain race-free without locks. (An
// unmarked source cloned with markSrc=false is marked anyway; that
// combination only arises single-threaded, outside the template
// contract.)
//
// Marking first splits every fork-shared leaf of the source (see
// CloneCOW), since a shared node must not carry a link count another
// machine's tables would change. The split gives the table a private
// copy and the copy its own frame references, taken in both t's
// Physical and phys, which must be a clone of it made before this call
// (as kernel.Kernel.Clone does): both machines' raw refcounts then
// match an eagerly forked machine's.
func (t *Table) CloneHost(phys *mem.Physical, meter *cost.Meter, markSrc bool) *Table {
	if markSrc || !t.root.shared() {
		t.root = t.freeze(t.root, Levels-1, phys)
	}
	return &Table{
		phys:        phys,
		meter:       meter,
		root:        t.root,
		nodes:       t.nodes,
		entries:     t.entries,
		hugeEntries: t.hugeEntries,
		tlb:         t.tlb,
	}
}

// freeze marks a subtree immutable-and-aliasable and returns its root
// (n itself, or n's private copy if n was a fork-shared leaf). A shared
// node's children are always already shared (ownership breaks copy
// top-down and never touch shared nodes), so the walk prunes there —
// repeated snapshots of a live machine only pay for nodes written
// since the last one.
func (t *Table) freeze(n *node, level int, phys *mem.Physical) *node {
	if n.shared() {
		return n
	}
	if n.links > 1 {
		n = t.own(n)
		for i := range n.slots {
			phys.IncRef(n.ptes[i].Frame())
		}
	}
	if level > 0 {
		for i := range n.slots {
			if n.kids[i] != nil {
				n.kids[i] = t.freeze(n.kids[i], level-1, phys)
			}
		}
	}
	n.links = 0
	return n
}
