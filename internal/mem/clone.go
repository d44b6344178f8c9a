package mem

import "repro/internal/cost"

// CloneHost duplicates the physical memory's entire logical state —
// frame table, free lists, allocation watermark, commit books — into a
// new Physical charging against meter, without copying any frame
// contents: materialised frames alias the source's byte arrays, marked
// shared so the first in-place write on either side copies the bytes
// out (see Write). The clone is logically an exact deep copy (reads,
// refcounts, commit charge, and every metered cost behave identically),
// but the host pays one pointer-free memmove of the frame table plus
// O(materialised frames) — not Θ(resident bytes), and most resident
// pages are lazy zeroes with no materialised entry at all.
//
// markSrc selects whether the *source's* materialised frames are also
// flagged shared. A snapshot into an immutable template passes true
// (the live machine keeps running and must not scribble on bytes the
// template now aliases); stamping a machine out of a frozen template
// passes false, so concurrent stamps only read the template — never
// write it — and remain race-free without locks. A frame the source
// has not marked is marked anyway: an array one side would write in
// place or recycle (see dropData) must be one no other machine reads.
// A frozen template's frames were all marked when it was made, so
// stamping still writes nothing.
//
// The fault injector is deliberately not carried over: injectors are
// bound to a meter and recorder, and the cloning kernel installs the
// clone's own (see kernel.Kernel.Clone).
func (p *Physical) CloneHost(meter *cost.Meter, markSrc bool) *Physical {
	return p.CloneHostInto(meter, markSrc, nil)
}

// CloneHostInto is CloneHost recycling a retired clone's allocations:
// scratch's frame table, host-frame books, and data map are reused in
// place instead of reallocated, so a fleet stamping machines in a loop
// stops churning the dominant per-clone allocation (the frame table is
// one entry per page of RAM). scratch must be dead — no other
// reference may read it again — and must not be p itself. A nil
// scratch allocates fresh, exactly like CloneHost. The returned
// Physical (scratch, when given) is logically identical to a fresh
// clone: every field is rewritten, unset ones zeroed.
func (p *Physical) CloneHostInto(meter *cost.Meter, markSrc bool, scratch *Physical) *Physical {
	np := scratch
	if np == nil {
		np = &Physical{}
	}
	frames := append(np.frames[:0], p.frames...)
	hframes := append(np.hframes[:0], p.hframes...)
	hfree := append(np.hfree[:0], p.hfree...)
	data := np.data
	*np = Physical{
		meter:          meter,
		frames:         frames,
		nextFree:       p.nextFree,
		freeHead:       p.freeHead,
		hframes:        hframes,
		hfree:          hfree,
		totalPages:     p.totalPages,
		allocatedPages: p.allocatedPages,
		policy:         p.policy,
		commitLimit:    p.commitLimit,
		committed:      p.committed,
	}
	if len(p.data) > 0 {
		if data == nil {
			data = make(map[FrameID]*frameData, len(p.data))
		} else {
			clear(data)
		}
		np.data = data
		for f, fd := range p.data {
			np.data[f] = &frameData{bytes: fd.bytes, shared: true}
			if markSrc || !fd.shared {
				fd.shared = true
			}
		}
	}
	return np
}

// SharedFrames counts live frames whose byte arrays are still host-COW
// shared with a template or clone. On a frozen template it must never
// decrease: a drop means some clone's write reached the template's
// frames instead of breaking the sharing (the independence tests assert
// on this).
func (p *Physical) SharedFrames() int {
	n := 0
	for f, fd := range p.data {
		if fd.shared && p.slot(f).refs > 0 {
			n++
		}
	}
	return n
}
