// Package mem implements the simulated machine's physical memory: a
// frame allocator with per-frame reference counts (for copy-on-write
// sharing), lazily materialised frame contents, huge (2 MiB) frames,
// and commit accounting with selectable overcommit policies.
//
// Base frames are 4 KiB. A frame whose contents have never been
// written holds no backing []byte at all and reads as zeroes; this
// lets the simulator model multi-gigabyte address spaces without
// allocating gigabytes of host memory, while still charging the
// virtual-time cost of zeroing and copying.
//
// A materialised 4 KiB frame's byte array is recycled through a pool
// when the frame is freed or zeroed, so a short-lived process that
// pages in an image and exits leaves no garbage per page. Only arrays
// this Physical owns alone are pooled; one host-COW-shared with a
// template or clone (see CloneHost) never is.
package mem

import (
	"fmt"
	"sync"

	"repro/internal/cost"
	"repro/internal/errno"
	"repro/internal/fault"
)

// Page geometry. These mirror x86-64 4 KiB base pages and 2 MiB huge
// pages.
const (
	PageShift     = 12
	PageSize      = 1 << PageShift // 4096
	HugeShift     = 21
	HugeSize      = 1 << HugeShift // 2 MiB
	FramesPerHuge = HugeSize / PageSize
)

// FrameID names a physical frame. Huge frames live in a separate
// namespace distinguished by the top bit. NoFrame is the invalid
// sentinel.
type FrameID uint32

// NoFrame is an invalid frame id.
const NoFrame FrameID = ^FrameID(0)

const hugeBit FrameID = 1 << 31

// IsHuge reports whether f names a 2 MiB frame.
func (f FrameID) IsHuge() bool { return f != NoFrame && f&hugeBit != 0 }

// Size reports the frame's size in bytes.
func (f FrameID) Size() int {
	if f.IsHuge() {
		return HugeSize
	}
	return PageSize
}

// Pages reports the frame's size in 4 KiB pages.
func (f FrameID) Pages() uint64 {
	if f.IsHuge() {
		return FramesPerHuge
	}
	return 1
}

// frame is one frame's allocator state. Deliberately pointer-free (8
// bytes): machine cloning copies the whole table with one memmove, and
// the garbage collector never scans it. Contents live out-of-line in
// Physical.data — most frames are lazy zeroes and have none.
type frame struct {
	refs int32
	next FrameID // intrusive free-list link, meaningful only while free
}

// frameData is one materialised frame's contents. shared marks bytes
// host-COW-aliased with a template or clone machine (see CloneHost):
// they must be copied out before the first in-place write. Purely
// host-side — it never affects refcounts, commit, or any metered cost.
type frameData struct {
	bytes  []byte
	shared bool
}

// pagePool recycles 4 KiB frame arrays between frames and machines. A
// pooled array is always zero (dropData clears it on the way in), so
// a partial write to a freshly materialised frame still reads zero
// elsewhere. sync.Pool keeps this safe for machines running on
// parallel host goroutines.
var pagePool = sync.Pool{New: func() any { return new([PageSize]byte) }}

// newBytes returns zeroed backing for a frame of the given size: a
// pooled array for a 4 KiB frame, a fresh one for a huge frame.
func newBytes(size int) []byte {
	if size != PageSize {
		return make([]byte, size)
	}
	return pagePool.Get().(*[PageSize]byte)[:]
}

// dropData forgets f's contents, so it reads as zeroes again. A 4 KiB
// array only this Physical holds goes back to the pool.
func (p *Physical) dropData(f FrameID) {
	fd := p.data[f]
	if fd == nil {
		return
	}
	delete(p.data, f)
	if !fd.shared && !f.IsHuge() {
		a := (*[PageSize]byte)(fd.bytes)
		clear(a[:])
		pagePool.Put(a)
	}
}

// CommitPolicy selects how commit (reservation) accounting behaves.
// It models /proc/sys/vm/overcommit_memory.
type CommitPolicy int

const (
	// CommitHeuristic allows reservations freely unless a single
	// request is larger than RAM+swap; processes discover memory
	// exhaustion later, at fault time (the OOM-killer regime the
	// paper blames fork for normalising).
	CommitHeuristic CommitPolicy = iota
	// CommitStrict refuses any reservation that would push total
	// committed pages past the commit limit (RAM + swap). Under
	// this policy forking a large process fails up front with
	// ENOMEM.
	CommitStrict
	// CommitAlways never refuses a reservation (overcommit_memory=1).
	CommitAlways
)

func (p CommitPolicy) String() string {
	switch p {
	case CommitHeuristic:
		return "heuristic"
	case CommitStrict:
		return "strict"
	case CommitAlways:
		return "always"
	}
	return fmt.Sprintf("CommitPolicy(%d)", int(p))
}

// Physical is the machine's physical memory.
type Physical struct {
	meter *cost.Meter

	// Base (4 KiB) frames. The allocator is O(1) in both time and
	// setup: never-allocated frames are handed out in ascending id
	// order from a bump watermark, and freed frames go on an
	// intrusive LIFO list threaded through the frame structs — no
	// per-frame free stack is ever built, and the frame table grows
	// lazily, so booting a multi-GiB machine costs nothing up front.
	frames   []frame
	nextFree uint64  // bump watermark: ids below this have been handed out
	freeHead FrameID // head of the intrusive free list (NoFrame = empty)

	// data holds materialised frame contents, base and huge alike
	// (huge ids keep their tag bit). A live frame with no entry reads
	// as zeroes; entries are deleted when the frame is freed or
	// zeroed, so every entry belongs to a live frame.
	data map[FrameID]*frameData

	hframes []frame   // huge (2 MiB) frames, grown on demand
	hfree   []FrameID // LIFO free stack of huge frames (few; a slice is fine)

	totalPages     uint64 // RAM size in 4 KiB pages
	allocatedPages uint64 // pages currently handed out (huge counts 512)

	policy      CommitPolicy
	commitLimit uint64 // pages (RAM + swap)
	committed   uint64 // pages currently reserved

	// inj, when set, is the machine's fault injector: frame
	// allocations and commit reservations become schedulable failure
	// points (nil = never inject; the Fail calls are nil-safe).
	inj *fault.Injector
}

// NewPhysical creates physical memory of ramBytes plus swapBytes of
// commit headroom under the given policy. Sizes are rounded down to
// whole pages. The meter is charged for every hardware operation.
func NewPhysical(meter *cost.Meter, ramBytes, swapBytes uint64, policy CommitPolicy) *Physical {
	nframes := ramBytes >> PageShift
	return &Physical{
		meter:       meter,
		freeHead:    NoFrame,
		totalPages:  nframes,
		policy:      policy,
		commitLimit: (ramBytes + swapBytes) >> PageShift,
	}
}

// TotalPages reports the RAM size in 4 KiB pages.
func (p *Physical) TotalPages() uint64 { return p.totalPages }

// FreePages reports how many 4 KiB pages remain unallocated.
func (p *Physical) FreePages() uint64 { return p.totalPages - p.allocatedPages }

// AllocatedPages reports how many 4 KiB pages are handed out (a huge
// frame accounts for 512).
func (p *Physical) AllocatedPages() uint64 { return p.allocatedPages }

// CommitLimit reports the commit ceiling in pages.
func (p *Physical) CommitLimit() uint64 { return p.commitLimit }

// Committed reports the pages currently reserved.
func (p *Physical) Committed() uint64 { return p.committed }

// Policy reports the commit policy in force.
func (p *Physical) Policy() CommitPolicy { return p.policy }

// SetPolicy changes the overcommit policy (used by experiments).
func (p *Physical) SetPolicy(pol CommitPolicy) { p.policy = pol }

// SetInjector installs the machine's fault injector (kernel boot).
func (p *Physical) SetInjector(i *fault.Injector) { p.inj = i }

// Injector returns the machine's fault injector (nil when fault
// injection is off; the address-space layer consults its own points
// through here).
func (p *Physical) Injector() *fault.Injector { return p.inj }

// Reserve requests commit for n pages of private writable memory.
// Under CommitStrict it fails with ENOMEM when the commit limit would
// be exceeded; under CommitHeuristic it fails only for single requests
// larger than the limit; CommitAlways never fails.
func (p *Physical) Reserve(n uint64) error {
	if e := p.inj.Fail(fault.PointCommit, n); e != errno.OK {
		return e
	}
	switch p.policy {
	case CommitStrict:
		if p.committed+n > p.commitLimit {
			return errno.ENOMEM
		}
	case CommitHeuristic:
		if n > p.commitLimit {
			return errno.ENOMEM
		}
	case CommitAlways:
	}
	p.committed += n
	return nil
}

// Unreserve returns commit for n pages.
func (p *Physical) Unreserve(n uint64) {
	if n > p.committed {
		panic(fmt.Sprintf("mem: unreserve %d with only %d committed", n, p.committed))
	}
	p.committed -= n
}

func (p *Physical) slot(f FrameID) *frame {
	if f == NoFrame {
		panic("mem: NoFrame")
	}
	if f.IsHuge() {
		i := f &^ hugeBit
		if uint64(i) >= uint64(len(p.hframes)) {
			panic(fmt.Sprintf("mem: bad huge frame %d", i))
		}
		return &p.hframes[i]
	}
	if uint64(f) >= uint64(len(p.frames)) {
		panic(fmt.Sprintf("mem: bad frame %d", f))
	}
	return &p.frames[f]
}

func (p *Physical) live(f FrameID) *frame {
	fr := p.slot(f)
	if fr.refs <= 0 {
		panic(fmt.Sprintf("mem: use of free frame %d", f))
	}
	return fr
}

// Alloc hands out one 4 KiB frame with refcount 1 and logically zero
// contents. It fails with ENOMEM when RAM is exhausted — the simulated
// OOM condition. Recently freed frames are reused first (LIFO, cache-
// warm); otherwise the next never-touched frame is taken in ascending
// id order, growing the frame table on demand.
func (p *Physical) Alloc() (FrameID, error) {
	if e := p.inj.Fail(fault.PointFrameAlloc, 1); e != errno.OK {
		return NoFrame, e
	}
	if p.allocatedPages+1 > p.totalPages {
		return NoFrame, errno.ENOMEM
	}
	var f FrameID
	if p.freeHead != NoFrame {
		f = p.freeHead
		p.freeHead = p.frames[f].next
	} else {
		if p.nextFree >= p.totalPages {
			return NoFrame, errno.ENOMEM
		}
		f = FrameID(p.nextFree)
		p.nextFree++
		if uint64(len(p.frames)) < p.nextFree {
			p.frames = append(p.frames, frame{})
		}
	}
	p.frames[f] = frame{refs: 1}
	p.allocatedPages++
	p.meter.Charge(p.meter.Model.FrameAlloc)
	return f, nil
}

// AllocHuge hands out one 2 MiB frame with refcount 1. The 512-page
// budget is charged against the same RAM pool as base frames.
func (p *Physical) AllocHuge() (FrameID, error) {
	if e := p.inj.Fail(fault.PointFrameAlloc, FramesPerHuge); e != errno.OK {
		return NoFrame, e
	}
	if p.allocatedPages+FramesPerHuge > p.totalPages {
		return NoFrame, errno.ENOMEM
	}
	var f FrameID
	if n := len(p.hfree); n > 0 {
		f = p.hfree[n-1]
		p.hfree = p.hfree[:n-1]
	} else {
		p.hframes = append(p.hframes, frame{})
		f = FrameID(len(p.hframes)-1) | hugeBit
	}
	*p.slot(f) = frame{refs: 1}
	p.allocatedPages += FramesPerHuge
	p.meter.Charge(p.meter.Model.FrameAlloc)
	return f, nil
}

// AllocZero allocates a 4 KiB frame and charges the zero-fill cost.
// (Contents are lazily zero anyway; the charge models the hardware.)
func (p *Physical) AllocZero() (FrameID, error) {
	f, err := p.Alloc()
	if err != nil {
		return NoFrame, err
	}
	p.meter.Charge(p.meter.Model.PageZero)
	p.meter.PageZeroes++
	return f, nil
}

// AllocHugeZero allocates a 2 MiB frame and charges the 2 MiB
// zero-fill cost.
func (p *Physical) AllocHugeZero() (FrameID, error) {
	f, err := p.AllocHuge()
	if err != nil {
		return NoFrame, err
	}
	p.meter.Charge(p.meter.Model.HugeZero)
	p.meter.PageZeroes += FramesPerHuge
	return f, nil
}

// IncRef adds a reference to f (COW sharing on fork).
func (p *Physical) IncRef(f FrameID) {
	p.live(f).refs++
}

// DecRef drops a reference; when the count reaches zero the frame is
// freed and true is returned.
func (p *Physical) DecRef(f FrameID) bool {
	fr := p.live(f)
	fr.refs--
	if fr.refs > 0 {
		return false
	}
	p.dropData(f)
	if f.IsHuge() {
		*fr = frame{}
		p.hfree = append(p.hfree, f)
		p.allocatedPages -= FramesPerHuge
	} else {
		*fr = frame{next: p.freeHead}
		p.freeHead = f
		p.allocatedPages--
	}
	p.meter.Charge(p.meter.Model.FrameFree)
	return true
}

// Refs reports the reference count of f.
func (p *Physical) Refs(f FrameID) int32 {
	return p.live(f).refs
}

// Read copies frame contents at off into buf. Unmaterialised frames
// read as zeroes.
func (p *Physical) Read(f FrameID, off int, buf []byte) {
	p.live(f)
	if off < 0 || off+len(buf) > f.Size() {
		panic(fmt.Sprintf("mem: read off=%d len=%d beyond frame size %d", off, len(buf), f.Size()))
	}
	fd := p.data[f]
	if fd == nil {
		clear(buf)
		return
	}
	copy(buf, fd.bytes[off:off+len(buf)])
}

// Write stores data into frame f at off, materialising the frame's
// backing store only if the write changes its contents (an all-zero
// write to a zero frame stays lazy).
func (p *Physical) Write(f FrameID, off int, data []byte) {
	p.live(f)
	if off < 0 || off+len(data) > f.Size() {
		panic(fmt.Sprintf("mem: write off=%d len=%d beyond frame size %d", off, len(data), f.Size()))
	}
	fd := p.data[f]
	if fd == nil {
		allZero := true
		for _, b := range data {
			if b != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			return
		}
		fd = &frameData{bytes: newBytes(f.Size())}
		if p.data == nil {
			p.data = map[FrameID]*frameData{}
		}
		p.data[f] = fd
	} else if fd.shared {
		// First write to a template-shared frame: break the host-side
		// sharing by copying the bytes out. Free — the simulated
		// machine already paid its COW break (or owns the frame
		// exclusively); only the host representation was shared.
		nd := newBytes(f.Size())
		copy(nd, fd.bytes)
		fd.bytes = nd
		fd.shared = false
	}
	copy(fd.bytes[off:], data)
}

// Materialised reports whether f has real backing storage (false ⇒
// it is a lazy zero frame). Used by tests and memory accounting.
func (p *Physical) Materialised(f FrameID) bool {
	p.live(f)
	return p.data[f] != nil
}

// CopyFrame duplicates src into a newly allocated frame of the same
// size, charging the copy cost (the COW-break path). The new frame has
// refcount 1.
func (p *Physical) CopyFrame(src FrameID) (FrameID, error) {
	p.live(src)
	var srcData []byte
	if fd := p.data[src]; fd != nil {
		srcData = fd.bytes
	}
	var dst FrameID
	var err error
	if src.IsHuge() {
		dst, err = p.AllocHuge()
		if err == nil {
			p.meter.Charge(p.meter.Model.HugeCopy)
			p.meter.PageCopies += FramesPerHuge
		}
	} else {
		dst, err = p.Alloc()
		if err == nil {
			p.meter.Charge(p.meter.Model.PageCopy)
			p.meter.PageCopies++
		}
	}
	if err != nil {
		return NoFrame, err
	}
	if srcData != nil {
		nd := newBytes(src.Size())
		copy(nd, srcData)
		if p.data == nil {
			p.data = map[FrameID]*frameData{}
		}
		p.data[dst] = &frameData{bytes: nd}
	}
	return dst, nil
}

// ZeroFrame resets f's contents to zero (used when recycling pages
// within an address space, e.g. exec tearing down the old image).
func (p *Physical) ZeroFrame(f FrameID) {
	p.live(f)
	p.dropData(f)
	if f.IsHuge() {
		p.meter.Charge(p.meter.Model.HugeZero)
		p.meter.PageZeroes += FramesPerHuge
	} else {
		p.meter.Charge(p.meter.Model.PageZero)
		p.meter.PageZeroes++
	}
}
