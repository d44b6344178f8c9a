// Package addrspace implements virtual address spaces for the
// simulator: a sorted list of VMAs (virtual memory areas) over a
// 4-level page table, with demand-zero and file-backed paging,
// copy-on-write fault handling, brk, and commit accounting.
//
// The package supplies the two operations whose relative cost "A
// fork() in the road" is about: CloneCOW (the fork path, Θ(mapped
// pages)) and building a fresh space from an image (the spawn path,
// Θ(1) in the parent's size).
package addrspace

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/cost"
	"repro/internal/errno"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/pagetable"
)

// Prot is a permission mask.
type Prot uint8

// Permission bits.
const (
	Read  Prot = 1 << 0
	Write Prot = 1 << 1
	Exec  Prot = 1 << 2
)

func (p Prot) String() string {
	b := []byte("---")
	if p&Read != 0 {
		b[0] = 'r'
	}
	if p&Write != 0 {
		b[1] = 'w'
	}
	if p&Exec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Kind classifies a VMA for reporting and teardown policy.
type Kind uint8

// VMA kinds.
const (
	KindAnon Kind = iota
	KindHeap
	KindStack
	KindText
	KindData
)

func (k Kind) String() string {
	switch k {
	case KindAnon:
		return "anon"
	case KindHeap:
		return "heap"
	case KindStack:
		return "stack"
	case KindText:
		return "text"
	case KindData:
		return "data"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Backing supplies page contents for file-backed VMAs (executable
// images). Offsets are relative to the backing object's start.
type Backing interface {
	// ReadAt fills buf from the backing store at off. Reads beyond
	// the backing's size must zero-fill.
	ReadAt(off uint64, buf []byte)
}

// VMA is one contiguous region of the address space.
type VMA struct {
	Start, End uint64 // [Start, End), page-aligned
	Prot       Prot
	Kind       Kind
	Name       string
	Shared     bool // MAP_SHARED: no COW on fork
	Huge       bool // backed by 2 MiB pages
	Backing    Backing
	BackingOff uint64 // offset of Start within Backing
}

// Len reports the VMA's size in bytes.
func (v *VMA) Len() uint64 { return v.End - v.Start }

// Pages reports the VMA's size in 4 KiB pages.
func (v *VMA) Pages() uint64 { return v.Len() >> mem.PageShift }

// reserved reports whether this VMA's pages count against the commit
// limit (private writable memory, as in Linux).
func (v *VMA) reserved() bool { return !v.Shared && v.Prot&Write != 0 }

func (v *VMA) pageSize() uint64 {
	if v.Huge {
		return mem.HugeSize
	}
	return mem.PageSize
}

func (v *VMA) String() string {
	return fmt.Sprintf("%#x-%#x %s %s %s", v.Start, v.End, v.Prot, v.Kind, v.Name)
}

// Layout constants for the canonical process image.
const (
	// TextBase is where executable images are mapped.
	TextBase = uint64(0x0000_0000_0040_0000)
	// MmapBase is the bottom of the anonymous-mapping arena.
	MmapBase = uint64(0x0000_2000_0000_0000)
	// MmapTop caps the arena.
	MmapTop = uint64(0x0000_7000_0000_0000)
	// StackTop is one past the highest stack byte.
	StackTop = uint64(0x0000_7fff_ffff_f000)
)

// Space is one process's virtual address space.
type Space struct {
	phys  *mem.Physical
	meter *cost.Meter
	pt    *pagetable.Table

	vmas []*VMA // sorted by Start, non-overlapping

	rssPages    uint64 // resident pages (huge counts 512)
	commitPages uint64 // pages reserved against phys

	brkBase, brk uint64 // heap bounds; brkBase==0 ⇒ no heap yet

	// resident is a bitmask of CPUs currently executing in this
	// space (maintained by the kernel's dispatcher). Any operation
	// that shrinks a translation — a COW break, an unmap, a write-
	// permission downgrade — must interrupt every *other* resident
	// CPU to invalidate its TLB: the per-remote-CPU IPI tax that "A
	// fork() in the road" §5 argues makes fork scale badly with
	// cores.
	resident uint64
}

// New creates an empty address space.
func New(phys *mem.Physical, meter *cost.Meter) *Space {
	return &Space{phys: phys, meter: meter, pt: pagetable.New(phys, meter)}
}

// Phys exposes the physical memory (used by the kernel and tests).
func (s *Space) Phys() *mem.Physical { return s.phys }

// PageTable exposes the underlying table (used by tests and stats).
func (s *Space) PageTable() *pagetable.Table { return s.pt }

// RSS reports resident set size in bytes.
func (s *Space) RSS() uint64 { return s.rssPages << mem.PageShift }

// Committed reports this space's commit charge in bytes.
func (s *Space) Committed() uint64 { return s.commitPages << mem.PageShift }

// MappedBytes reports the total size of all VMAs.
func (s *Space) MappedBytes() uint64 {
	var n uint64
	for _, v := range s.vmas {
		n += v.Len()
	}
	return n
}

// VMAs returns the VMA list (not a copy; callers must not mutate).
func (s *Space) VMAs() []*VMA { return s.vmas }

// Brk reports the current program break.
func (s *Space) Brk() uint64 { return s.brk }

// MarkResident records that cpu is executing in this space.
func (s *Space) MarkResident(cpu int) { s.resident |= 1 << uint(cpu) }

// ClearResident records that cpu switched away from this space.
func (s *Space) ClearResident(cpu int) { s.resident &^= 1 << uint(cpu) }

// ResidentCPUs counts the CPUs currently executing in this space.
func (s *Space) ResidentCPUs() int { return bits.OnesCount64(s.resident) }

// shootdown charges one TLB-shootdown IPI per remote CPU on which the
// space is resident: every translation-shrinking operation (COW break,
// unmap, protection downgrade) is one batched invalidation round. The
// initiating CPU — the meter's active one — invalidates locally for
// free (the local flush cost is part of the page-table operation).
func (s *Space) shootdown() {
	s.meter.ChargeShootdown(bits.OnesCount64(s.resident &^ (1 << uint(s.meter.ActiveCPU()))))
}

func align(x, a uint64) uint64   { return (x + a - 1) &^ (a - 1) }
func alignDn(x, a uint64) uint64 { return x &^ (a - 1) }

// find returns the index of the first VMA with End > va.
func (s *Space) find(va uint64) int {
	return sort.Search(len(s.vmas), func(i int) bool { return s.vmas[i].End > va })
}

// FindVMA returns the VMA containing va, or nil.
func (s *Space) FindVMA(va uint64) *VMA {
	i := s.find(va)
	if i < len(s.vmas) && s.vmas[i].Start <= va {
		return s.vmas[i]
	}
	return nil
}

// overlaps reports whether [start,end) intersects any VMA.
func (s *Space) overlaps(start, end uint64) bool {
	i := s.find(start)
	return i < len(s.vmas) && s.vmas[i].Start < end
}

// MapOpts configures Map.
type MapOpts struct {
	Kind       Kind
	Name       string
	Shared     bool
	Huge       bool
	Backing    Backing
	BackingOff uint64
}

// Map creates a VMA of length bytes at start (page-aligned; huge VMAs
// 2 MiB-aligned). If start is zero an address is chosen from the mmap
// arena. Private writable VMAs reserve commit and can fail with ENOMEM
// under strict accounting. Pages are not populated: first touch faults
// them in.
func (s *Space) Map(start, length uint64, prot Prot, opts MapOpts) (*VMA, error) {
	ps := uint64(mem.PageSize)
	if opts.Huge {
		ps = mem.HugeSize
	}
	if length == 0 {
		return nil, errno.EINVAL
	}
	length = align(length, ps)
	if start == 0 {
		var err error
		start, err = s.findGap(length, ps)
		if err != nil {
			return nil, err
		}
	}
	if start%ps != 0 {
		return nil, errno.EINVAL
	}
	end := start + length
	if end > pagetable.MaxVA || end < start {
		return nil, errno.EINVAL
	}
	if s.overlaps(start, end) {
		return nil, errno.EEXIST
	}
	v := &VMA{
		Start: start, End: end, Prot: prot,
		Kind: opts.Kind, Name: opts.Name, Shared: opts.Shared,
		Huge: opts.Huge, Backing: opts.Backing, BackingOff: opts.BackingOff,
	}
	if v.reserved() {
		if err := s.phys.Reserve(v.Pages()); err != nil {
			return nil, err
		}
		s.commitPages += v.Pages()
	}
	i := s.find(start)
	s.vmas = append(s.vmas, nil)
	copy(s.vmas[i+1:], s.vmas[i:])
	s.vmas[i] = v
	s.meter.Charge(s.meter.Model.VMAClone)
	return v, nil
}

// findGap locates a free region of the given length in the mmap arena.
func (s *Space) findGap(length, pageSize uint64) (uint64, error) {
	addr := MmapBase
	for {
		i := s.find(addr)
		if i >= len(s.vmas) || s.vmas[i].Start >= addr+length {
			if addr+length > MmapTop {
				return 0, errno.ENOMEM
			}
			return addr, nil
		}
		addr = align(s.vmas[i].End, pageSize)
	}
}

// releaseEntry drops the frame reference held by a leaf entry and
// maintains RSS.
func (s *Space) releaseEntry(e pagetable.PTE) {
	f := e.Frame()
	s.rssPages -= f.Pages()
	s.phys.DecRef(f)
}

// Unmap removes [start, start+length) from the space, splitting VMAs
// as needed and releasing any resident pages. Huge VMAs may only be
// cut at 2 MiB boundaries.
func (s *Space) Unmap(start, length uint64) error {
	if length == 0 || start%mem.PageSize != 0 {
		return errno.EINVAL
	}
	length = align(length, mem.PageSize)
	end := start + length

	var out []*VMA
	released := 0
	for _, v := range s.vmas {
		if v.End <= start || v.Start >= end {
			out = append(out, v)
			continue
		}
		lo := v.Start
		if start > lo {
			lo = start
		}
		hi := v.End
		if end < hi {
			hi = end
		}
		if v.Huge && (lo%mem.HugeSize != 0 || hi%mem.HugeSize != 0) {
			return errno.EINVAL
		}
		// Release resident pages in [lo, hi).
		for va := lo; va < hi; va += v.pageSize() {
			if old, ok := s.pt.Unmap(va); ok {
				s.releaseEntry(old)
				released++
			}
		}
		if v.reserved() {
			n := (hi - lo) >> mem.PageShift
			s.phys.Unreserve(n)
			s.commitPages -= n
		}
		// Keep surviving fragments.
		if v.Start < lo {
			left := *v
			left.End = lo
			out = append(out, &left)
			s.meter.Charge(s.meter.Model.VMAClone)
		}
		if v.End > hi {
			right := *v
			right.Start = hi
			right.BackingOff = v.BackingOff + (hi - v.Start)
			out = append(out, &right)
			s.meter.Charge(s.meter.Model.VMAClone)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	s.vmas = out
	if released > 0 {
		// One batched invalidation round for the whole range.
		s.shootdown()
	}
	return nil
}

// SetupHeap establishes the heap origin (called by exec).
func (s *Space) SetupHeap(base uint64) {
	s.brkBase = align(base, mem.PageSize)
	s.brk = s.brkBase
}

// SetBrk grows or shrinks the heap to newBrk and returns the resulting
// break. A newBrk of 0 queries the current break.
func (s *Space) SetBrk(newBrk uint64) (uint64, error) {
	if s.brkBase == 0 {
		return 0, errno.EINVAL
	}
	if newBrk == 0 || newBrk == s.brk {
		return s.brk, nil
	}
	if newBrk < s.brkBase {
		return s.brk, errno.EINVAL
	}
	oldEnd := align(s.brk, mem.PageSize)
	newEnd := align(newBrk, mem.PageSize)
	switch {
	case newEnd > oldEnd:
		if _, err := s.Map(oldEnd, newEnd-oldEnd, Read|Write, MapOpts{Kind: KindHeap, Name: "[heap]"}); err != nil {
			return s.brk, err
		}
	case newEnd < oldEnd:
		if err := s.Unmap(newEnd, oldEnd-newEnd); err != nil {
			return s.brk, err
		}
	}
	s.brk = newBrk
	return s.brk, nil
}

// Access distinguishes fault intents.
type Access uint8

// Access intents.
const (
	AccessRead Access = iota
	AccessWrite
	AccessExec
)

func (a Access) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	}
	return fmt.Sprintf("access(%d)", int(a))
}

// Fault services a page fault at va with the given intent. It returns
// EFAULT for accesses outside any VMA or violating VMA protections,
// and ENOMEM when physical memory is exhausted (the OOM condition —
// under heuristic overcommit this is where a forked giant discovers
// there is no memory left).
func (s *Space) Fault(va uint64, access Access) error {
	v := s.FindVMA(va)
	if v == nil {
		return errno.EFAULT
	}
	switch access {
	case AccessWrite:
		if v.Prot&Write == 0 {
			return errno.EFAULT
		}
	case AccessExec:
		if v.Prot&Exec == 0 {
			return errno.EFAULT
		}
	default:
		if v.Prot&Read == 0 {
			return errno.EFAULT
		}
	}

	s.meter.Charge(s.meter.Model.PageFault)
	s.meter.PageFaults++

	base := alignDn(va, v.pageSize())
	pte, present := s.pt.Lookup(base)
	if !present {
		return s.demandFault(v, base, access)
	}
	if access == AccessWrite && !pte.Writable() {
		return s.cowBreak(v, base, pte)
	}
	// Benign race with the TLB (e.g. read fault on a page another
	// path just mapped): nothing to do.
	return nil
}

// pageInPool holds the scratch arrays demandFault reads image pages
// through, so a page-in allocates nothing of its own.
var pageInPool = sync.Pool{New: func() any { return new([mem.PageSize]byte) }}

// demandFault populates an absent page.
func (s *Space) demandFault(v *VMA, base uint64, access Access) error {
	var f mem.FrameID
	var err error
	if v.Huge {
		f, err = s.phys.AllocHugeZero()
	} else {
		f, err = s.phys.AllocZero()
	}
	if err != nil {
		return err
	}
	if v.Backing != nil {
		// Page in from the image, 4 KiB at a time. Charged per 4 KiB
		// page read.
		buf := pageInPool.Get().(*[mem.PageSize]byte)
		for off := 0; off < f.Size(); off += mem.PageSize {
			v.Backing.ReadAt(v.BackingOff+(base-v.Start)+uint64(off), buf[:])
			s.phys.Write(f, off, buf[:])
		}
		pageInPool.Put(buf)
		s.meter.Charge(cost.Ticks(f.Pages()) * s.meter.Model.ImagePageIn)
	}
	flags := pteFlags(v.Prot)
	if access == AccessWrite {
		flags |= pagetable.FlagDirty
	}
	if v.Shared {
		flags |= pagetable.FlagShared
	}
	if v.Huge {
		s.pt.MapHuge(base, pagetable.Make(f, flags))
	} else {
		s.pt.Map(base, pagetable.Make(f, flags))
	}
	s.rssPages += f.Pages()
	return nil
}

// cowBreak services a write fault on a read-only present page: if the
// page is COW it is either reclaimed (sole owner) or copied; a page
// that is privately owned but mapped read-only because of an earlier
// Protect call regains write permission in place (the mprotect-upgrade
// path); anything else is a protection violation (the VMA-level check
// already passed, so this only triggers for stale per-page state).
func (s *Space) cowBreak(v *VMA, base uint64, pte pagetable.PTE) error {
	// Injection point: a schedulable failure before any state is
	// touched, so an injected ENOMEM leaves the page exactly as the
	// fault found it (the write retries or the OOM killer fires).
	if e := s.phys.Injector().Fail(fault.PointCOWBreak, pte.Frame().Pages()); e != errno.OK {
		return e
	}
	// A fork-shared page-table leaf holds one frame reference for all
	// the spaces linking it: take this space's own before asking
	// whether anyone else maps the frame.
	s.pt.Own(base)
	if !pte.COW() {
		if s.phys.Refs(pte.Frame()) == 1 {
			// Permission widening, same frame: no remote
			// invalidation needed — a stale read-only entry on
			// another CPU just takes a spurious fault and
			// re-walks.
			s.pt.Update(base, pte.With(pagetable.FlagWritable|pagetable.FlagDirty))
			return nil
		}
		return errno.EFAULT
	}
	f := pte.Frame()
	if s.phys.Refs(f) == 1 {
		// Sole owner again (the other side copied or exited):
		// reclaim write permission in place. Widening only, so
		// again no remote IPIs.
		s.pt.Update(base, pte.Without(pagetable.FlagCOW).With(pagetable.FlagWritable|pagetable.FlagDirty))
		return nil
	}
	nf, err := s.phys.CopyFrame(f)
	if err != nil {
		return err
	}
	s.phys.DecRef(f)
	// The old frame stays resident in the other space(s); this
	// space swaps in the copy, so RSS is unchanged.
	flags := pte.Flags().Without(pagetable.FlagCOW).With(pagetable.FlagWritable | pagetable.FlagDirty)
	s.pt.Update(base, pagetable.Make(nf, flags))
	// The frame changed: every other CPU running this space may
	// still translate to the old frame and must be interrupted —
	// one IPI each, per break. This is the tax that makes a forked
	// snapshot of a busy SMP server expensive.
	s.shootdown()
	return nil
}

func pteFlags(p Prot) pagetable.PTE {
	var f pagetable.PTE
	if p&Write != 0 {
		f |= pagetable.FlagWritable
	}
	if p&Exec != 0 {
		f |= pagetable.FlagExec
	}
	return f
}

// Translate resolves va to a frame and intra-frame offset, faulting as
// needed. It is the kernel's copyin/copyout and the VM's load/store
// path.
func (s *Space) Translate(va uint64, access Access) (mem.FrameID, int, error) {
	for tries := 0; tries < 3; tries++ {
		pte, ok := s.pt.Lookup(va &^ (mem.PageSize - 1))
		if ok && (access != AccessWrite || pte.Writable()) {
			f := pte.Frame()
			return f, int(va & uint64(f.Size()-1)), nil
		}
		if err := s.Fault(va, access); err != nil {
			return mem.NoFrame, 0, err
		}
	}
	panic(fmt.Sprintf("addrspace: translate %#x did not converge", va))
}

// ReadBytes copies len(buf) bytes from user memory at va.
func (s *Space) ReadBytes(va uint64, buf []byte) error {
	for len(buf) > 0 {
		f, off, err := s.Translate(va, AccessRead)
		if err != nil {
			return err
		}
		n := f.Size() - off
		if n > len(buf) {
			n = len(buf)
		}
		s.phys.Read(f, off, buf[:n])
		buf = buf[n:]
		va += uint64(n)
	}
	return nil
}

// WriteBytes copies data into user memory at va.
func (s *Space) WriteBytes(va uint64, data []byte) error {
	for len(data) > 0 {
		f, off, err := s.Translate(va, AccessWrite)
		if err != nil {
			return err
		}
		n := f.Size() - off
		if n > len(data) {
			n = len(data)
		}
		s.phys.Write(f, off, data[:n])
		data = data[n:]
		va += uint64(n)
	}
	return nil
}

// Touch faults in [va, va+length) with the given intent without moving
// data. Workload generators use it to dirty a parent of a given size
// cheaply (a write of zeroes keeps frames unmaterialised on the host).
// Pages already mapped with sufficient permission cost only a TLB
// probe, so re-touching resident memory is nearly free — which makes
// Touch usable as the "rewrite working set" step of the COW-tax
// experiment.
func (s *Space) Touch(va, length uint64, access Access) error {
	end := va + length
	for va < end {
		v := s.FindVMA(va)
		if v == nil {
			return errno.EFAULT
		}
		if _, _, err := s.Translate(va, access); err != nil {
			return err
		}
		va = alignDn(va, v.pageSize()) + v.pageSize()
	}
	return nil
}

// CloneCOW builds the forked-child copy of s: VMAs are duplicated,
// commit is reserved for every private writable page (this is the
// up-front ENOMEM under strict accounting), and the page table is
// COW-cloned. The child's RSS equals the parent's: all resident pages
// are shared until written. The virtual cost is Θ(mapped pages); the
// host work is O(page-table nodes), as the child links the parent's
// page-table leaves (see pagetable.Table.CloneCOW).
func (s *Space) CloneCOW() (*Space, error) {
	// Injection point: the entry into fork's Θ(mapped pages) walk,
	// before the commit reservation — a scheduled failure here is
	// "the kernel could not mirror the page tables".
	if e := s.phys.Injector().Fail(fault.PointPTClone, uint64(s.pt.Entries())); e != errno.OK {
		return nil, e
	}
	if err := s.phys.Reserve(s.commitPages); err != nil {
		return nil, err
	}
	c := &Space{
		phys: s.phys, meter: s.meter,
		rssPages:    s.rssPages,
		commitPages: s.commitPages,
		brkBase:     s.brkBase, brk: s.brk,
	}
	c.vmas = make([]*VMA, len(s.vmas))
	for i, v := range s.vmas {
		nv := *v
		c.vmas[i] = &nv
		s.meter.Charge(s.meter.Model.VMAClone)
	}
	c.pt = s.pt.CloneCOW()
	// Every shared frame now has an extra (effective) reference, held
	// by the page-table leaf both spaces link. RSS for the child counts
	// them resident.
	//
	// The clone downgraded every private writable mapping in the
	// *parent* to read-only: every other CPU running the parent must
	// be interrupted before the fork is safe — the paper's §5 "fork
	// pauses all your cores" point. One batched round; the child is
	// brand new and resident nowhere.
	if s.pt.Entries() > 0 {
		s.shootdown()
	}
	return c, nil
}

// CloneEager is the 1970s fork: every private resident page is copied
// immediately. Used by the EagerFork ablation. On ENOMEM the partial
// child is torn down and nil returned.
func (s *Space) CloneEager() (*Space, error) {
	if e := s.phys.Injector().Fail(fault.PointPTClone, uint64(s.pt.Entries())); e != errno.OK {
		return nil, e
	}
	if err := s.phys.Reserve(s.commitPages); err != nil {
		return nil, err
	}
	c := &Space{
		phys: s.phys, meter: s.meter,
		rssPages:    s.rssPages,
		commitPages: s.commitPages,
		brkBase:     s.brkBase, brk: s.brk,
	}
	c.vmas = make([]*VMA, len(s.vmas))
	for i, v := range s.vmas {
		nv := *v
		c.vmas[i] = &nv
		s.meter.Charge(s.meter.Model.VMAClone)
	}
	pt, err := s.pt.CloneEager()
	c.pt = pt
	if err != nil {
		// The partial child holds only the frames copied before the
		// failure, not the parent's full resident set the optimistic
		// pre-assignment above claimed: recount before Destroy's
		// leak check tallies the releases.
		var pages uint64
		c.pt.Visit(func(_ uint64, e pagetable.PTE) pagetable.PTE {
			pages += e.Frame().Pages()
			return e
		})
		c.rssPages = pages
		c.Destroy()
		return nil, err
	}
	return c, nil
}

// Destroy releases every resident page, page-table page, and commit
// reservation. The space must not be used afterwards. Pages in
// page-table leaves still shared with a fork relative stay resident
// there: they leave this space's RSS without a frame reference moving.
func (s *Space) Destroy() {
	s.rssPages -= s.pt.Destroy(func(_ uint64, e pagetable.PTE) {
		s.releaseEntry(e)
	})
	if s.commitPages > 0 {
		s.phys.Unreserve(s.commitPages)
		s.commitPages = 0
	}
	s.vmas = nil
	s.brkBase, s.brk = 0, 0
	s.resident = 0
	if s.rssPages != 0 {
		panic(fmt.Sprintf("addrspace: %d pages leaked at destroy", s.rssPages))
	}
}

// Dump formats the VMA list for debugging and the forksh `vmmap`
// command.
func (s *Space) Dump() string {
	out := ""
	for _, v := range s.vmas {
		out += v.String() + "\n"
	}
	return out
}

// Protect changes the protection of [start, start+length) — the
// mprotect(2) of the simulator. VMAs are split at the boundaries as
// needed. Removing write permission downgrades present PTEs
// immediately; granting it is lazy (the next write faults and the
// sole-owner upgrade path in cowBreak restores the bit), mirroring how
// real kernels avoid eagerly rewriting page tables on mprotect.
func (s *Space) Protect(start, length uint64, prot Prot) error {
	if length == 0 || start%mem.PageSize != 0 {
		return errno.EINVAL
	}
	length = align(length, mem.PageSize)
	end := start + length

	// Every byte of the range must be mapped (POSIX ENOMEM).
	for va := start; va < end; {
		v := s.FindVMA(va)
		if v == nil {
			return errno.ENOMEM
		}
		va = v.End
	}

	var out []*VMA
	for _, v := range s.vmas {
		if v.End <= start || v.Start >= end {
			out = append(out, v)
			continue
		}
		lo, hi := v.Start, v.End
		if start > lo {
			lo = start
		}
		if end < hi {
			hi = end
		}
		if v.Huge && (lo%mem.HugeSize != 0 || hi%mem.HugeSize != 0) {
			return errno.EINVAL
		}
		// Commit accounting moves with the writable bit.
		wasReserved := v.reserved()
		mid := *v
		mid.Start, mid.End, mid.Prot = lo, hi, prot
		mid.BackingOff = v.BackingOff + (lo - v.Start)
		if wasReserved != mid.reserved() {
			n := (hi - lo) >> mem.PageShift
			if mid.reserved() {
				if err := s.phys.Reserve(n); err != nil {
					return err
				}
				s.commitPages += n
			} else {
				s.phys.Unreserve(n)
				s.commitPages -= n
			}
		}
		if v.Start < lo {
			left := *v
			left.End = lo
			out = append(out, &left)
			s.meter.Charge(s.meter.Model.VMAClone)
		}
		out = append(out, &mid)
		s.meter.Charge(s.meter.Model.VMAClone)
		if v.End > hi {
			right := *v
			right.Start = hi
			right.BackingOff = v.BackingOff + (hi - v.Start)
			out = append(out, &right)
			s.meter.Charge(s.meter.Model.VMAClone)
		}
		// Downgrade present PTEs when write permission is
		// revoked; exec/read removal is enforced at the VMA
		// level on the next fault.
		if prot&Write == 0 {
			downgraded := 0
			for va := lo; va < hi; va += mid.pageSize() {
				if pte, ok := s.pt.Lookup(va); ok && pte.Writable() {
					s.pt.Update(va, pte.Without(pagetable.FlagWritable))
					downgraded++
				}
			}
			if downgraded > 0 {
				// One batched invalidation round per
				// protection change.
				s.shootdown()
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	s.vmas = out
	return nil
}
