package pagetable_test

import (
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/mem"
	"repro/internal/pagetable"
)

// The property test drives a family of up to maxTables live Tables
// through random map/update/rewrite/clone/unmap/destroy/freeze
// sequences — including huge-page and COW-flag interactions, writes
// through page-table leaves that CloneCOW left shared between a parent
// and its live children, and writes through nodes a template snapshot
// froze — and checks every table against its own flat map model of what
// the radix tree should contain, together with frame refcount
// conservation across the family and every node's occupancy bitmap and
// entry counts, every few steps and at the end. The
// same interpreter backs the fuzz target below, so a crashing byte
// string found by `go test -fuzz=FuzzTableOps` replays here verbatim.
//
// Virtual-address discipline: 4 KiB mappings live under PML4 slots
// 0–3 and huge mappings under slots 8–11, so randomly generated
// operations can never trip the deliberate "4K overlaps huge" panics —
// those are separate, intentional API misuse, pinned by the package's
// own tests.

const (
	maxLiveEntries = 1500
	maxTables      = 4
	maxFrozen      = 2
	propRAM        = uint64(2) << 30
)

// propTable is one live table of the family and its model.
type propTable struct {
	tab   *pagetable.Table
	model map[uint64]pagetable.PTE
	vas   []uint64 // live virtual addresses, insertion-ordered
}

type propHarness struct {
	t     testing.TB
	meter *cost.Meter
	phys  *mem.Physical
	tabs  []*propTable

	// frozen holds template snapshots (CloneHost with markSrc) of
	// family tables, each with the model it was frozen at: whatever the
	// family does later, a template must not change.
	frozen []*propTable
}

func newPropHarness(t testing.TB) *propHarness {
	meter := cost.NewMeter(cost.DefaultModel())
	phys := mem.NewPhysical(meter, propRAM, 0, mem.CommitAlways)
	return &propHarness{
		t:     t,
		meter: meter,
		phys:  phys,
		tabs:  []*propTable{{tab: pagetable.New(phys, meter), model: map[uint64]pagetable.PTE{}}},
	}
}

// va4k builds a base-page address under PML4 slot sel%4. Bit 2 of sel
// picks the spread: sparse addresses range over 128 leaves, exercising
// interior-node allocation, clone and free across many nodes; dense
// ones fall in the slot's first 8 leaves, which fill up enough for
// writes through fork-shared leaves to matter. vaHuge builds a 2
// MiB-aligned address under slots 8–11.
func va4k(sel byte, idx uint16) uint64 {
	if sel&4 != 0 {
		idx %= 4096
	}
	return uint64(sel%4)<<39 + uint64(idx)*uint64(mem.PageSize)
}

func vaHuge(sel byte, idx uint16) uint64 {
	return uint64(8+sel%4)<<39 + uint64(idx%512)*uint64(mem.HugeSize)
}

// randFlags keeps the frame bits clear and avoids the contradictory
// Shared+COW combination the kernel never produces.
func randFlags(b byte) pagetable.PTE {
	var f pagetable.PTE
	if b&1 != 0 {
		f |= pagetable.FlagWritable
	}
	if b&2 != 0 {
		f |= pagetable.FlagExec
	}
	if b&4 != 0 {
		f |= pagetable.FlagDirty
	}
	if b&8 != 0 {
		f |= pagetable.FlagAccessed
	}
	if b&16 != 0 {
		f |= pagetable.FlagShared
	} else if b&32 != 0 {
		f |= pagetable.FlagCOW
	}
	return f
}

func (pt *propTable) track(va uint64, e pagetable.PTE) {
	if _, ok := pt.model[va]; !ok {
		pt.vas = append(pt.vas, va)
	}
	pt.model[va] = e
}

func (pt *propTable) untrack(va uint64) {
	delete(pt.model, va)
	for i, v := range pt.vas {
		if v == va {
			pt.vas[i] = pt.vas[len(pt.vas)-1]
			pt.vas = pt.vas[:len(pt.vas)-1]
			return
		}
	}
}

// pick returns a live va, deterministically from r.
func (pt *propTable) pick(r uint16) (uint64, bool) {
	if len(pt.vas) == 0 {
		return 0, false
	}
	return pt.vas[int(r)%len(pt.vas)], true
}

// unmapAt removes va from pt's table and model, dropping the frame ref,
// and checks the table handed back exactly the modelled entry.
func (h *propHarness) unmapAt(pt *propTable, va uint64) {
	want := pt.model[va]
	got, ok := pt.tab.Unmap(va)
	if !ok || got != want {
		h.t.Fatalf("Unmap(%#x) = %v, %v; model holds %v", va, got, ok, want)
	}
	h.phys.DecRef(got.Frame())
	pt.untrack(va)
}

// destroy tears pt's table down, dropping every frame reference it
// releases.
func (h *propHarness) destroy(tab *pagetable.Table) {
	tab.Destroy(func(va uint64, e pagetable.PTE) {
		h.phys.DecRef(e.Frame())
	})
}

// verify walks the whole tree and compares it, entry for entry,
// against the flat model.
func (h *propHarness) verify(tag string, tab *pagetable.Table, model map[uint64]pagetable.PTE) {
	seen, hugeCount := 0, 0
	tab.Visit(func(va uint64, e pagetable.PTE) pagetable.PTE {
		want, ok := model[va]
		if !ok {
			h.t.Fatalf("%s: table entry %#x = %v not in model", tag, va, e)
		}
		if e != want|pagetable.FlagPresent {
			h.t.Fatalf("%s: entry %#x = %v, model %v", tag, va, e, want|pagetable.FlagPresent)
		}
		// The point lookup must agree with the walk (TLB coherence).
		if le, ok := tab.Lookup(va); !ok || le != e {
			h.t.Fatalf("%s: Lookup(%#x) = %v, %v; walk saw %v", tag, va, le, ok, e)
		}
		seen++
		if e.Huge() {
			hugeCount++
		}
		return e
	})
	if seen != len(model) {
		h.t.Fatalf("%s: table has %d entries, model %d", tag, seen, len(model))
	}
	if tab.Entries() != len(model) || tab.HugeEntries() != hugeCount {
		h.t.Fatalf("%s: counters Entries=%d HugeEntries=%d, model %d/%d",
			tag, tab.Entries(), tab.HugeEntries(), len(model), hugeCount)
	}
}

// verifyAll checks every live table against its model, and refcount
// conservation over the family: each frame's effective refs equal the
// number of table entries mapping it, and every allocated frame is
// mapped somewhere.
func (h *propHarness) verifyAll(tag string) {
	tabs := make([]*pagetable.Table, len(h.tabs))
	want := map[mem.FrameID]int32{}
	var pages uint64
	for i, pt := range h.tabs {
		h.verify(tag, pt.tab, pt.model)
		tabs[i] = pt.tab
		for _, e := range pt.model {
			if want[e.Frame()] == 0 {
				pages += e.Frame().Pages()
			}
			want[e.Frame()]++
		}
	}
	eff := pagetable.EffectiveRefs(h.phys, tabs...)
	if len(eff) != len(want) {
		h.t.Fatalf("%s: tables map %d frames, models %d", tag, len(eff), len(want))
	}
	for f, n := range want {
		if eff[f] != n {
			h.t.Fatalf("%s: frame %d effective refs %d, mapped by %d table entries", tag, f, eff[f], n)
		}
	}
	if got := h.phys.AllocatedPages(); got != pages {
		h.t.Fatalf("%s: %d pages allocated, models map %d", tag, got, pages)
	}
	for _, ft := range h.frozen {
		h.verify(tag+" template", ft.tab, ft.model)
		tabs = append(tabs, ft.tab)
	}
	if err := pagetable.CheckNodes(tabs...); err != nil {
		h.t.Fatalf("%s: %v", tag, err)
	}
}

// cloneModels derives the post-CloneCOW parent and child models: both
// sides of a private mapping lose write permission and gain COW (if it
// was ever writable); shared mappings pass through untouched.
func cloneModels(parent map[uint64]pagetable.PTE) (newParent, child map[uint64]pagetable.PTE) {
	newParent = map[uint64]pagetable.PTE{}
	child = map[uint64]pagetable.PTE{}
	for va, e := range parent {
		if e.Shared() {
			newParent[va] = e
			child[va] = e
			continue
		}
		shared := e.Without(pagetable.FlagWritable)
		if e.Writable() || e.COW() {
			shared = shared.With(pagetable.FlagCOW)
		}
		newParent[va] = shared
		child[va] = shared
	}
	return newParent, child
}

// step applies one operation to the table op selects.
func (h *propHarness) step(op, b1 byte, r uint16) {
	pt := h.tabs[int(op/11)%len(h.tabs)]
	switch op % 11 {
	case 0, 1: // map a 4 KiB page
		if len(pt.model) >= maxLiveEntries {
			return
		}
		va := va4k(b1, r)
		if _, ok := pt.model[va]; ok {
			h.unmapAt(pt, va) // replacing in place would leak the old frame
		}
		f, err := h.phys.Alloc()
		if err != nil {
			return // RAM exhausted; other ops continue
		}
		e := pagetable.Make(f, randFlags(op))
		pt.tab.Map(va, e)
		pt.track(va, e|pagetable.FlagPresent)
	case 2: // map a 2 MiB page
		if len(pt.model) >= maxLiveEntries {
			return
		}
		va := vaHuge(b1, r)
		if _, ok := pt.model[va]; ok {
			h.unmapAt(pt, va)
		}
		f, err := h.phys.AllocHuge()
		if err != nil {
			return
		}
		e := pagetable.Make(f, randFlags(op))
		pt.tab.MapHuge(va, e)
		pt.track(va, e|pagetable.FlagPresent|pagetable.FlagHuge)
	case 3: // unmap a live entry
		if va, ok := pt.pick(r); ok {
			h.unmapAt(pt, va)
		}
	case 4: // rewrite a live entry's flags, keeping its frame
		va, ok := pt.pick(r)
		if !ok {
			return
		}
		old := pt.model[va]
		e := pagetable.Make(old.Frame(), randFlags(b1))
		pt.tab.Update(va, e)
		want := e | pagetable.FlagPresent
		if old.Huge() {
			want |= pagetable.FlagHuge
		}
		pt.model[va] = want
	case 5: // point lookup, hit or miss
		var va uint64
		if b1&1 == 0 {
			va, _ = pt.pick(r)
		} else {
			va = va4k(b1, r)
		}
		got, ok := pt.tab.Lookup(va)
		want, wok := pt.model[va]
		if ok != wok || (ok && got != want) {
			h.t.Fatalf("Lookup(%#x) = %v, %v; model %v, %v", va, got, ok, want, wok)
		}
	case 6: // COW clone: the child joins the family (or, when the
		// family is full, is checked and torn down at once)
		newParent, childModel := cloneModels(pt.model)
		writes := len(pt.model) // child installs, plus parent downgrades:
		for va, e := range pt.model {
			if newParent[va] != e {
				writes++
			}
		}
		now, copies, nodes := h.meter.Now(), h.meter.PTECopies, h.meter.PTNodes
		child := pt.tab.CloneCOW()
		// The bill is the full copy, however little the host copied.
		m := h.meter.Model
		if child.Nodes() != pt.tab.Nodes() {
			h.t.Fatalf("clone child has %d nodes, parent %d", child.Nodes(), pt.tab.Nodes())
		}
		want := cost.Ticks(writes)*m.PTEWrite + cost.Ticks(child.Nodes()+1)*m.PTNodeAlloc + 2*m.TLBFlush
		if got := h.meter.Now() - now; got != want {
			h.t.Fatalf("clone charged %d ticks, want %d (%d PTE writes, %d nodes)", got, want, writes, child.Nodes()+1)
		}
		if got := h.meter.PTECopies - copies; got != uint64(len(childModel)) {
			h.t.Fatalf("clone counted %d PTE copies, want %d", got, len(childModel))
		}
		if got := h.meter.PTNodes - nodes; got != uint64(child.Nodes()+1) {
			h.t.Fatalf("clone counted %d page-table nodes, want %d", got, child.Nodes()+1)
		}
		pt.model = newParent
		h.verify("clone child", child, childModel)
		if len(h.tabs) == maxTables {
			h.destroy(child)
			return
		}
		h.tabs = append(h.tabs, &propTable{tab: child, model: childModel, vas: append([]uint64(nil), pt.vas...)})
	case 7: // eager clone: fresh frames for private entries
		child, err := pt.tab.CloneEager()
		if err != nil {
			// Mid-clone ENOMEM: the partial table must still tear
			// down cleanly without corrupting refcounts.
			h.destroy(child)
			return
		}
		seen := map[uint64]pagetable.PTE{}
		child.Visit(func(va uint64, e pagetable.PTE) pagetable.PTE {
			seen[va] = e
			return e
		})
		if len(seen) != len(pt.model) {
			h.t.Fatalf("eager clone: %d entries, model %d", len(seen), len(pt.model))
		}
		for va, want := range pt.model {
			got, ok := seen[va]
			if !ok || got.Flags() != want.Flags() {
				h.t.Fatalf("eager clone entry %#x = %v (ok=%v), want flags of %v", va, got, ok, want)
			}
			if !want.Shared() && got.Frame() == want.Frame() {
				h.t.Fatalf("eager clone shares private frame at %#x", va)
			}
			if want.Shared() && got.Frame() != want.Frame() {
				h.t.Fatalf("eager clone copied shared frame at %#x", va)
			}
		}
		h.destroy(child)
	case 8: // Visit rewrite of every entry r selects
		pt.tab.Visit(func(va uint64, e pagetable.PTE) pagetable.PTE {
			if (va>>mem.PageShift+uint64(r))%3 != 0 {
				return e
			}
			ne := pagetable.Make(e.Frame(), randFlags(b1)) | e&pagetable.FlagHuge
			pt.model[va] = ne | pagetable.FlagPresent
			return ne
		})
	case 9: // destroy a table, keeping at least one
		if len(h.tabs) == 1 {
			return
		}
		h.destroy(pt.tab)
		for i := range h.tabs {
			if h.tabs[i] == pt {
				h.tabs = append(h.tabs[:i], h.tabs[i+1:]...)
				break
			}
		}
	case 10: // snapshot the table into a frozen template, as a machine
		// snapshot does: the template binds to a clone of the physical
		// memory and every node on both sides becomes template-shared
		tphys := h.phys.CloneHost(cost.NewMeter(cost.DefaultModel()), true)
		tpl := pt.tab.CloneHost(tphys, cost.NewMeter(cost.DefaultModel()), true)
		model := make(map[uint64]pagetable.PTE, len(pt.model))
		for va, e := range pt.model {
			model[va] = e
		}
		if len(h.frozen) == maxFrozen {
			h.frozen = h.frozen[1:]
		}
		h.frozen = append(h.frozen, &propTable{tab: tpl, model: model})
	}
}

// verifyEvery is how many steps runOps takes between whole-family
// checks; each walks every node of every table.
const verifyEvery = 4

// runOps interprets ops 4 bytes at a time, checking the family every
// verifyEvery steps and after the last, then destroys every table and
// checks that every physical frame came back and that the nodes the
// teardown pooled came back zeroed.
func runOps(t testing.TB, ops []byte) {
	h := newPropHarness(t)
	for i := 0; i+4 <= len(ops); i += 4 {
		h.step(ops[i], ops[i+1], uint16(ops[i+2])|uint16(ops[i+3])<<8)
		if (i/4)%verifyEvery == verifyEvery-1 {
			h.verifyAll("step")
		}
	}
	h.verifyAll("final")
	for _, pt := range h.tabs {
		h.destroy(pt.tab)
	}
	if got := h.phys.AllocatedPages(); got != 0 {
		t.Fatalf("frame leak: %d pages still allocated after Destroy", got)
	}
	if err := pagetable.CheckNodes(); err != nil {
		t.Fatalf("after Destroy: %v", err)
	}
}

// TestTableProperties runs the interpreter over seeded random op
// streams — deterministic, so failures reproduce.
func TestTableProperties(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 6000)
		rng.Read(ops)
		t.Run(string(rune('A'+seed)), func(t *testing.T) {
			runOps(t, ops)
		})
	}
}

// FuzzTableOps lets the fuzzer hunt for byte strings the random seeds
// miss; the corpus replays as ordinary tests.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 1, 2, 3, 2, 1, 0, 0, 6, 0, 0, 0, 3, 0, 0, 0})
	rng := rand.New(rand.NewSource(99))
	seed := make([]byte, 256)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<16 {
			ops = ops[:1<<16]
		}
		runOps(t, ops)
	})
}
