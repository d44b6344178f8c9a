// Package pagetable implements x86-64-style 4-level radix page tables
// for the simulator: 48-bit virtual addresses, 4 KiB base pages, and
// 2 MiB huge mappings installed one level up.
//
// This is the data structure whose duplication dominates the cost of
// fork() in "A fork() in the road": CloneCOW bills a mirror node for
// every page-table page and one entry write per mapped page, so its
// virtual-time cost is Θ(mapped pages) — exactly the linear growth the
// paper's Figure 1 shows.
//
// The host does less than it bills. CloneCOW links the parent's level-0
// leaf nodes into the child instead of copying them (after the COW
// downgrade both sides hold byte-identical leaves), so the host work of
// a fork and of the child's Destroy is O(page-table nodes), not
// O(mapped pages). A fork-shared leaf holds one frame reference per
// present entry however many tables link it; a table takes a private
// copy (and its own frame references) before it writes through one.
// This is the host-side form of On-demand-fork (Zhao, Gong, Fonseca,
// EuroSys'21), which shares last-level page tables at fork.
//
// Every whole-tree walk — clone, destroy, Visit, freeze — visits only
// the populated slots of each node, found through the node's occupancy
// bitmap (node.used), so a sparse table costs what it maps, not 512
// slots per node.
package pagetable

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/cost"
	"repro/internal/mem"
)

// PTE is a page-table entry: flag bits in the low 12 bits and the
// frame id shifted into the address bits.
type PTE uint64

// PTE flag bits.
const (
	FlagPresent  PTE = 1 << 0
	FlagWritable PTE = 1 << 1
	FlagExec     PTE = 1 << 2
	// FlagCOW marks a private page temporarily made read-only
	// because parent and child share the frame after fork. A write
	// fault on a COW page copies the frame (or reclaims it if the
	// refcount dropped back to 1).
	FlagCOW PTE = 1 << 3
	// FlagHuge marks a 2 MiB mapping installed at level 1 (the PD).
	FlagHuge     PTE = 1 << 4
	FlagDirty    PTE = 1 << 5
	FlagAccessed PTE = 1 << 6
	// FlagShared marks a MAP_SHARED page: fork shares the frame
	// without COW.
	FlagShared PTE = 1 << 7

	frameShift = 12
)

// Make builds a PTE from a frame and flags.
func Make(f mem.FrameID, flags PTE) PTE {
	return PTE(uint64(f))<<frameShift | (flags & 0xfff)
}

// Frame extracts the frame id.
func (e PTE) Frame() mem.FrameID { return mem.FrameID(e >> frameShift) }

// Flags extracts the flag bits.
func (e PTE) Flags() PTE { return e & 0xfff }

// Present reports whether the entry maps a frame.
func (e PTE) Present() bool { return e&FlagPresent != 0 }

// Writable reports the hardware-writable bit.
func (e PTE) Writable() bool { return e&FlagWritable != 0 }

// COW reports the software copy-on-write bit.
func (e PTE) COW() bool { return e&FlagCOW != 0 }

// Huge reports whether this is a 2 MiB mapping.
func (e PTE) Huge() bool { return e&FlagHuge != 0 }

// Shared reports whether this page is MAP_SHARED.
func (e PTE) Shared() bool { return e&FlagShared != 0 }

// With returns e with the given flags set.
func (e PTE) With(flags PTE) PTE { return e | flags }

// Without returns e with the given flags cleared.
func (e PTE) Without(flags PTE) PTE { return e &^ flags }

func (e PTE) String() string {
	if !e.Present() {
		return "<absent>"
	}
	s := fmt.Sprintf("frame=%d", e.Frame())
	for _, f := range []struct {
		bit  PTE
		name string
	}{
		{FlagWritable, "W"}, {FlagExec, "X"}, {FlagCOW, "cow"},
		{FlagHuge, "huge"}, {FlagDirty, "D"}, {FlagAccessed, "A"},
		{FlagShared, "shared"},
	} {
		if e&f.bit != 0 {
			s += "+" + f.name
		}
	}
	return s
}

// Virtual-address geometry.
const (
	LevelBits = 9
	Levels    = 4
	VABits    = Levels*LevelBits + mem.PageShift // 48
	// MaxVA is one past the highest mappable virtual address.
	MaxVA = uint64(1) << VABits

	entriesPerNode = 1 << LevelBits // 512
	tlbSize        = 64
)

// level of a node: 3 (root/PML4) down to 0 (PT). Huge mappings live at
// level 1.
func index(va uint64, level int) int {
	return int(va>>(mem.PageShift+uint(level)*LevelBits)) & (entriesPerNode - 1)
}

type node struct {
	// kids is used at levels 3..1; ptes at level 0, and also at
	// level 1 for huge mappings (a slot holds either a kid or a
	// huge PTE, never both).
	kids [entriesPerNode]*node
	ptes [entriesPerNode]PTE

	// links counts the tables that own this node: 1 for a private
	// node, which its table writes in place. A level-0 leaf goes above
	// 1 when CloneCOW links it into a child (a fork-shared leaf, whose
	// tables are all on one machine); it holds one frame reference per
	// present entry whatever its links. 0 marks a shared node:
	// host-COW-aliased by a frozen template and its clones (see
	// CloneHost), immutable, linked by any number of tables on any
	// number of machines but owned by none, and never returned to the
	// pool. A table copies a node it does not own alone out of the way
	// before writing it (own).
	links int32

	// writable counts the entries a COW downgrade rewrites (present,
	// private and writable). CloneCOW bills a leaf from it and from
	// present without reading the leaf's entries. Every entry write
	// goes through set to keep it and used exact.
	writable int32

	// used is the occupancy bitmap: bit i is set iff slot i holds a kid
	// or a present PTE. Walks visit only the set bits, in ascending
	// order (slots), so their order, and that of every release and
	// frame free they drive, is a dense scan's. It sits beside
	// writable, which set also writes.
	used [entriesPerNode / 64]uint64
}

// set writes slot i, keeping the node's writable count and occupancy
// bit exact. The bit flips with the present bit: a slot that holds a
// PTE holds no kid.
func (n *node) set(i int, e PTE) {
	old := n.ptes[i]
	n.ptes[i] = e
	n.writable += cowable(e) - cowable(old)
	n.used[i>>6] ^= uint64((e^old)&FlagPresent) << (i & 63)
}

// present counts a leaf's present entries: its used slots.
func (n *node) present() uint64 {
	c := 0
	for _, w := range n.used {
		c += bits.OnesCount64(w)
	}
	return uint64(c)
}

// mark sets slot i's occupancy bit, for a kid being installed.
func (n *node) mark(i int) { n.used[i>>6] |= 1 << (i & 63) }

// slots yields the used slots in ascending order. Walks range over it
// (for i := range n.slots), and the compiler inlines both the iterator
// and the loop body, so a walk costs O(used slots), not 512.
func (n *node) slots(yield func(int) bool) {
	for w := range n.used {
		for word := n.used[w]; word != 0; word &= word - 1 {
			if !yield(w<<6 | bits.TrailingZeros64(word)) {
				return
			}
		}
	}
}

// cowable is 1 if a COW downgrade rewrites e (present, private and
// writable), else 0.
func cowable(e PTE) int32 {
	if e&(FlagPresent|FlagWritable|FlagShared) == FlagPresent|FlagWritable {
		return 1
	}
	return 0
}

// cowShare is the entry both parent and child hold after a fork: a
// private mapping drops write permission and is tagged COW (even an
// already read-only page is shared; keeping COW only on pages that were
// writable preserves their eventual write-back permission). A
// MAP_SHARED mapping is unchanged: same frame, full permissions.
func cowShare(e PTE) PTE {
	if e.Shared() {
		return e
	}
	s := e.Without(FlagWritable)
	if e.Writable() || e.COW() {
		s = s.With(FlagCOW)
	}
	return s
}

// shared reports whether n is frozen into a template (see links).
func (n *node) shared() bool { return n.links == 0 }

// ownedCopy returns a private, writable copy of n. The copy's kids
// still point at n's children; they get their own copies if and when
// they are written.
func ownedCopy(n *node) *node {
	c := newNode()
	c.used = n.used
	c.ptes = n.ptes
	c.kids = n.kids
	c.writable = n.writable
	return c
}

// own returns n if this table may write it in place, else the private
// copy to relink in its place. A template-shared node is copied
// host-only: its frame references already count this table's. A
// fork-shared leaf is copied and the copy takes its own reference on
// every present frame, so mem.Physical.Refs again tells whether any
// other table maps a frame; the leaf stays with the tables still
// linking it. Neither copy charges anything — logically the table
// owned the node all along.
//
// own and ownKid are split into a check the compiler inlines into every
// writer's walk and a slow path (unshare, relinkKid) that it calls. A
// demand fault walks four levels: with the copy folded into the check,
// perfbench's fork64 setup_s, which faults in a 64 MiB heap page by
// page, had a median of 2.74 ms against 2.35 ms split (five alternating
// pairs, 2-vCPU host).
func (t *Table) own(n *node) *node {
	if n.links == 1 {
		return n
	}
	return t.unshare(n)
}

// unshare is own's copying half.
func (t *Table) unshare(n *node) *node {
	c := ownedCopy(n)
	if !n.shared() {
		for i := range c.slots {
			t.phys.IncRef(c.ptes[i].Frame())
		}
		n.links--
	}
	return c
}

// nodePool recycles radix nodes between tables. Fork-heavy workloads
// allocate and destroy a mirror node per page-table page per child;
// without pooling that is an 8 KiB host allocation each, and at tens of
// thousands of creations the garbage collector dominates the
// simulator's own run time. Nodes are returned zeroed (destroyNode
// clears every used slot, the bitmap and the writable count as it
// walks), so Get only sets links.
// sync.Pool keeps this safe under `go test -race` with parallel tests.
var nodePool = sync.Pool{New: func() any { return new(node) }}

func newNode() *node {
	n := nodePool.Get().(*node)
	n.links = 1
	return n
}

func putNode(n *node) { nodePool.Put(n) }

type tlbEntry struct {
	vpn   uint64 // virtual page number (base-page granularity)
	pte   PTE
	valid bool
}

// Table is one address space's page-table tree plus a tiny TLB.
type Table struct {
	phys  *mem.Physical
	meter *cost.Meter
	root  *node

	nodes       int // interior + leaf page-table pages, excluding root
	entries     int // present leaf PTEs (a huge mapping counts once)
	hugeEntries int

	tlb [tlbSize]tlbEntry
}

// New creates an empty table. The root node is charged like any other
// page-table page.
func New(phys *mem.Physical, meter *cost.Meter) *Table {
	meter.Charge(meter.Model.PTNodeAlloc)
	meter.PTNodes++
	return &Table{phys: phys, meter: meter, root: newNode()}
}

// Entries reports the number of present leaf entries (huge counts 1).
func (t *Table) Entries() int { return t.entries }

// HugeEntries reports how many of the entries are 2 MiB mappings.
func (t *Table) HugeEntries() int { return t.hugeEntries }

// Nodes reports the number of page-table pages below the root.
func (t *Table) Nodes() int { return t.nodes }

func (t *Table) tlbSlot(vpn uint64) *tlbEntry { return &t.tlb[vpn%tlbSize] }

// InvalidateTLB drops any cached translation for va. Operations on
// huge mappings do a full FlushTLB instead, since a single huge entry
// backs 512 cached vpns.
func (t *Table) InvalidateTLB(va uint64) {
	vpn := va >> mem.PageShift
	if s := t.tlbSlot(vpn); s.valid && s.vpn == vpn {
		s.valid = false
	}
}

// FlushTLB drops all cached translations and charges the flush cost.
func (t *Table) FlushTLB() {
	for i := range t.tlb {
		t.tlb[i].valid = false
	}
	t.meter.Charge(t.meter.Model.TLBFlush)
}

func checkVA(va uint64) {
	if va >= MaxVA {
		panic(fmt.Sprintf("pagetable: va %#x beyond %d-bit space", va, VABits))
	}
}

// Map installs a 4 KiB mapping for va (page-aligned). Any existing
// entry is overwritten; the caller is responsible for frame refcounts
// of a replaced entry (use Unmap first if that matters).
func (t *Table) Map(va uint64, e PTE) {
	checkVA(va)
	if va&(mem.PageSize-1) != 0 {
		panic(fmt.Sprintf("pagetable: unaligned map %#x", va))
	}
	t.root = t.own(t.root)
	n := t.root
	for level := Levels - 1; level > 0; level-- {
		i := index(va, level)
		if level == 1 && n.ptes[i].Present() && n.ptes[i].Huge() {
			panic(fmt.Sprintf("pagetable: 4K map %#x overlaps huge mapping", va))
		}
		n = t.ownKid(n, i)
	}
	i := index(va, 0)
	if !n.ptes[i].Present() {
		t.entries++
	}
	n.set(i, e|FlagPresent)
	t.meter.Charge(t.meter.Model.PTEWrite)
	t.InvalidateTLB(va)
}

// MapHuge installs a 2 MiB mapping at va (2 MiB-aligned) at level 1.
func (t *Table) MapHuge(va uint64, e PTE) {
	checkVA(va)
	if va&(mem.HugeSize-1) != 0 {
		panic(fmt.Sprintf("pagetable: unaligned huge map %#x", va))
	}
	t.root = t.own(t.root)
	n := t.root
	for level := Levels - 1; level > 1; level-- {
		n = t.ownKid(n, index(va, level))
	}
	i := index(va, 1)
	if n.kids[i] != nil {
		panic(fmt.Sprintf("pagetable: huge map %#x overlaps 4K mappings", va))
	}
	if !n.ptes[i].Present() {
		t.entries++
		t.hugeEntries++
	}
	n.set(i, e|FlagPresent|FlagHuge)
	t.meter.Charge(t.meter.Model.PTEWrite)
	t.FlushTLB()
}

// ownKid returns n's child in slot i, owned by this table (see own)
// and relinked, allocating and charging a fresh node, and marking the
// slot used, if there is none. n must already be owned. The named
// result keeps the check within the inlining budget (cost 79 of 80).
func (t *Table) ownKid(n *node, i int) (kid *node) {
	if kid = n.kids[i]; kid == nil || kid.links != 1 {
		kid = t.relinkKid(n, i)
	}
	return
}

// relinkKid is ownKid's slow path.
func (t *Table) relinkKid(n *node, i int) *node {
	kid := n.kids[i]
	if kid == nil {
		kid = newNode()
		n.mark(i)
		t.nodes++
		t.meter.Charge(t.meter.Model.PTNodeAlloc)
		t.meter.PTNodes++
	} else {
		kid = t.unshare(kid)
	}
	n.kids[i] = kid
	return kid
}

// lookupSlot returns the leaf slot holding va's translation, or nil;
// huge reports a 2 MiB mapping.
func (t *Table) lookupSlot(va uint64) (slot *PTE, huge bool) {
	n := t.root
	for level := Levels - 1; level > 0; level-- {
		i := index(va, level)
		if level == 1 {
			if n.ptes[i].Present() && n.ptes[i].Huge() {
				return &n.ptes[i], true
			}
		}
		if n.kids[i] == nil {
			return nil, false
		}
		n = n.kids[i]
	}
	i := index(va, 0)
	if !n.ptes[i].Present() {
		return nil, false
	}
	return &n.ptes[i], false
}

// ownSlot is lookupSlot for writers: it returns the node and index of
// va's present translation (n is nil if there is none), with every
// node on the path owned by this table (see own).
func (t *Table) ownSlot(va uint64) (n *node, i int, huge bool) {
	t.root = t.own(t.root)
	n = t.root
	for level := Levels - 1; level > 0; level-- {
		i = index(va, level)
		if level == 1 && n.ptes[i].Present() && n.ptes[i].Huge() {
			return n, i, true
		}
		if n.kids[i] == nil {
			return nil, 0, false
		}
		n = t.ownKid(n, i)
	}
	i = index(va, 0)
	if !n.ptes[i].Present() {
		return nil, 0, false
	}
	return n, i, false
}

// Own makes the nodes on va's translation path private to this table
// (see own). It changes no entry and charges nothing. A caller that
// decides from mem.Physical.Refs whether another table maps va's frame
// — the COW-break fault — calls Own first: a fork-shared leaf holds a
// single reference for all the tables linking it.
func (t *Table) Own(va uint64) {
	checkVA(va)
	t.ownSlot(va)
}

// Lookup translates va. The TLB is consulted first; a miss charges the
// software-walk cost. The boolean reports whether a mapping exists.
func (t *Table) Lookup(va uint64) (PTE, bool) {
	checkVA(va)
	vpn := va >> mem.PageShift
	if s := t.tlbSlot(vpn); s.valid && s.vpn == vpn {
		return s.pte, true
	}
	t.meter.Charge(t.meter.Model.PTWalk)
	slot, _ := t.lookupSlot(va)
	if slot == nil {
		return 0, false
	}
	*t.tlbSlot(vpn) = tlbEntry{vpn: vpn, pte: *slot, valid: true}
	return *slot, true
}

// Update rewrites the existing entry covering va (COW break, dirty and
// accessed bits). It panics if va is unmapped.
func (t *Table) Update(va uint64, e PTE) {
	checkVA(va)
	n, i, huge := t.ownSlot(va)
	if n == nil {
		panic(fmt.Sprintf("pagetable: update of unmapped va %#x", va))
	}
	if huge {
		e |= FlagHuge
	}
	n.set(i, e|FlagPresent)
	t.meter.Charge(t.meter.Model.PTEWrite)
	if huge {
		t.FlushTLB()
	} else {
		t.InvalidateTLB(va)
	}
}

// Unmap removes the translation covering va and returns the old entry.
// For a huge mapping, va must be the mapping's base. The caller owns
// the frame reference.
func (t *Table) Unmap(va uint64) (PTE, bool) {
	checkVA(va)
	n, i, huge := t.ownSlot(va)
	if n == nil {
		return 0, false
	}
	old := n.ptes[i]
	if huge && va&(mem.HugeSize-1) != 0 {
		panic(fmt.Sprintf("pagetable: unmap %#x inside huge mapping", va))
	}
	n.set(i, 0)
	t.entries--
	if huge {
		t.hugeEntries--
	}
	t.meter.Charge(t.meter.Model.PTEWrite)
	if huge {
		t.FlushTLB()
	} else {
		t.InvalidateTLB(va)
	}
	return old, true
}

// Visit calls fn for every present leaf entry in ascending va order.
// fn receives the mapping's base va and may rewrite the entry by
// returning a new value (return the input to leave it unchanged).
// Rewrites charge a PTE write; the TLB is flushed afterwards if any
// entry changed.
func (t *Table) Visit(fn func(va uint64, e PTE) PTE) {
	root, changed := t.visit(t.root, 0, Levels-1, fn)
	t.root = root
	if changed {
		t.FlushTLB()
	}
}

// visit returns the node it ended up writing through — n itself, or an
// owned copy (see own) when a rewrite was needed — so the caller can
// relink it.
func (t *Table) visit(n *node, base uint64, level int, fn func(uint64, PTE) PTE) (*node, bool) {
	changed := false
	span := uint64(1) << (mem.PageShift + uint(level)*LevelBits)
	for i := range n.slots {
		va := base + uint64(i)*span
		if e := n.ptes[i]; e.Present() && (level == 0 || e.Huge()) {
			ne := fn(va, e)
			if ne != e {
				n = t.own(n)
				n.set(i, ne|FlagPresent)
				t.meter.Charge(t.meter.Model.PTEWrite)
				changed = true
			}
			continue
		}
		kid := n.kids[i]
		nk, ch := t.visit(kid, va, level-1, fn)
		if nk != kid {
			n = t.own(n)
			n.kids[i] = nk
		}
		if ch {
			changed = true
		}
	}
	return n, changed
}

// cloneCounts accumulates the metered events of a clone walk so the
// cost is charged in one batch at the end instead of one Charge call
// per entry. The virtual-time total is identical — Θ(mapped pages)
// remains the paper's point — but the host-side inner loop shrinks to
// pointer and integer work, which is what lets the load scenarios fork
// large parents tens of thousands of times.
type cloneCounts struct {
	writes uint64 // PTE writes: child installs plus parent downgrades
	copies uint64 // leaf entries copied into the child
	nodes  uint64 // mirror page-table pages allocated
}

// charge applies the accumulated events to the meter in one batch.
func (cc *cloneCounts) charge(m *cost.Meter) {
	m.Charge(cost.Ticks(cc.writes)*m.Model.PTEWrite + cost.Ticks(cc.nodes)*m.Model.PTNodeAlloc)
	m.PTECopies += cc.copies
	m.PTNodes += cc.nodes
}

// CloneCOW builds a copy of t for a forked child: every private
// mapping is downgraded to read-only + COW in *both* tables; shared
// mappings pass through verbatim. The virtual-time bill is the full
// copy — a mirror node for every page-table page and a PTE write for
// every mapping in the child plus every downgrade in the parent, the
// Θ(address-space size) loop at the heart of fork's cost.
//
// The host work is O(page-table nodes). Interior nodes and 2 MiB
// entries are mirrored, each huge frame gaining a reference. Level-0
// leaves are linked, not copied: after the downgrade both sides of a
// leaf would hold the same entries, so the child links the parent's
// leaf and its link count goes up, while its frame references stay one
// per entry. The leaf's cached counts supply the bill.
//
// Both local TLBs are flushed (the parent's mappings just lost their
// write permission). On a multicore machine the downgrade must also
// reach every other CPU running the parent; that per-remote-CPU
// shootdown IPI is charged by addrspace.CloneCOW, which knows the
// space's CPU residency.
func (t *Table) CloneCOW() *Table {
	child := New(t.phys, t.meter)
	var cc cloneCounts
	t.root = child.cloneNode(t.root, child.root, Levels-1, &cc)
	child.nodes = int(cc.nodes)
	child.entries = t.entries
	child.hugeEntries = t.hugeEntries
	cc.charge(t.meter)
	t.FlushTLB()
	child.FlushTLB()
	return child
}

// cloneNode mirrors interior node pn into cn. It returns the
// parent-side node it cloned through — pn itself, or an owned copy when
// pn was template-shared and had to change — so the caller (and
// CloneCOW for the root) can relink it into the parent table. The walk
// keeps ranging over the original pn's slots after a copy: the copy
// occupies the same ones.
func (c *Table) cloneNode(pn, cn *node, level int, cc *cloneCounts) *node {
	for i := range pn.slots {
		if e := pn.ptes[i]; level == 1 && e.Present() && e.Huge() {
			c.phys.IncRef(e.Frame())
			if s := cowShare(e); s != e {
				if pn.shared() {
					pn = ownedCopy(pn)
				}
				pn.set(i, s)
				cc.writes++
			}
			cn.set(i, pn.ptes[i])
			cc.writes++
			cc.copies++
			continue
		}
		kid := pn.kids[i]
		cc.nodes++
		cn.mark(i)
		var nk *node
		if level == 1 {
			nk = shareLeaf(kid, cc)
			cn.kids[i] = nk
		} else {
			cn.kids[i] = newNode()
			nk = c.cloneNode(kid, cn.kids[i], level-1, cc)
		}
		if nk != kid {
			if pn.shared() {
				pn = ownedCopy(pn)
			}
			pn.kids[i] = nk
		}
	}
	return pn
}

// shareLeaf downgrades the parent's leaf l in place and links it into
// the child, billing the same events as copying it entry by entry. A
// template-shared leaf belongs to no table, so it is first copied
// host-only, and the copy, returned, is what the parent must relink. A
// leaf already fork-shared was downgraded when it was first shared and
// has been written by no table since, so only the child's installs
// remain to bill.
func shareLeaf(l *node, cc *cloneCounts) *node {
	if l.shared() {
		l = ownedCopy(l)
	}
	if l.writable > 0 {
		for i := range l.slots {
			l.ptes[i] = cowShare(l.ptes[i])
		}
		cc.writes += uint64(l.writable)
		l.writable = 0
	}
	l.links++
	cc.writes += l.present()
	cc.copies += l.present()
	return l
}

// CloneEager builds a fully copied table for a child, 1970s-style: a
// fresh frame is allocated and the contents copied for every private
// mapping. Used by the kernel's EagerFork ablation. It can fail with
// ENOMEM mid-way; the partially built table is returned along with the
// error so the caller can destroy it.
func (t *Table) CloneEager() (*Table, error) {
	child := New(t.phys, t.meter)
	var cc cloneCounts
	err := child.cloneEagerNode(t.root, child.root, Levels-1, &cc)
	child.nodes = int(cc.nodes)
	// Charge even on the ENOMEM path: the work up to the failure
	// happened and its cost is real.
	cc.charge(t.meter)
	return child, err
}

func (c *Table) cloneEagerNode(pn, cn *node, level int, cc *cloneCounts) error {
	for i := range pn.slots {
		if e := pn.ptes[i]; e.Present() && (level == 0 || e.Huge()) {
			if e.Shared() {
				c.phys.IncRef(e.Frame())
				cn.set(i, e)
			} else {
				nf, err := c.phys.CopyFrame(e.Frame())
				if err != nil {
					return err
				}
				cn.set(i, Make(nf, e.Flags()))
			}
			cc.writes++
			cc.copies++
			c.entries++
			if e.Huge() {
				c.hugeEntries++
			}
			continue
		}
		cn.mark(i)
		cn.kids[i] = newNode()
		cc.nodes++
		if err := c.cloneEagerNode(pn.kids[i], cn.kids[i], level-1, cc); err != nil {
			return err
		}
	}
	return nil
}

// Destroy tears the tree down and charges the node-free cost for every
// page-table page including the root. It invokes release for every
// frame reference the table drops (the caller drops it there), in
// ascending va order. A fork-shared leaf's references pass to the
// tables still linking it: Destroy unlinks the leaf without releasing
// its entries and returns how many 4 KiB pages those leaves map, so the
// host work for a fork child that never wrote is O(page-table nodes).
// The last table holding a leaf releases its entries, at the point in
// va order where an eager copy would have dropped its final
// references, so frame frees and their order are unchanged.
func (t *Table) Destroy(release func(va uint64, e PTE)) (kept uint64) {
	dc := destroyCounts{freed: 1} // the root
	t.destroyNode(t.root, 0, Levels-1, release, &dc)
	if !t.root.shared() {
		putNode(t.root)
	}
	t.root = nil
	t.meter.Charge(cost.Ticks(dc.freed) * t.meter.Model.PTNodeFree)
	t.entries, t.nodes, t.hugeEntries = 0, 0, 0
	for i := range t.tlb {
		t.tlb[i].valid = false
	}
	return dc.kept
}

// destroyCounts accumulates a Destroy walk: page-table pages freed and
// 4 KiB pages left to the other holders of fork-shared leaves.
type destroyCounts struct {
	freed, kept uint64
}

// destroyNode zeroes every used slot, the bitmap and the writable count
// as it walks, so each node goes back to the pool fully cleared and
// newNode need only set links.
// The per-node free cost is accumulated into dc and charged in one
// batch by Destroy. Template-shared nodes are left untouched and
// unpooled — other tables still alias them — but their frees are still
// counted: the clone logically owned and freed them, and the cold
// machine it must stay metric-identical to charges for every one. So
// are the frees of fork-shared leaves, which are only unlinked.
func (t *Table) destroyNode(n *node, base uint64, level int, release func(uint64, PTE), dc *destroyCounts) {
	span := uint64(1) << (mem.PageShift + uint(level)*LevelBits)
	for i := range n.slots {
		va := base + uint64(i)*span
		if e := n.ptes[i]; e.Present() && (level == 0 || e.Huge()) {
			if release != nil {
				release(va, e)
			}
			if !n.shared() {
				n.ptes[i] = 0
			}
			continue
		}
		kid := n.kids[i]
		dc.freed++
		if kid.links > 1 {
			kid.links--
			dc.kept += kid.present()
		} else {
			t.destroyNode(kid, va, level-1, release, dc)
			if !kid.shared() {
				putNode(kid)
			}
		}
		if !n.shared() {
			n.kids[i] = nil
		}
	}
	if !n.shared() {
		n.used = [len(n.used)]uint64{}
		n.writable = 0
	}
}
