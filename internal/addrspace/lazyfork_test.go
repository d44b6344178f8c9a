package addrspace

import (
	"testing"

	"repro/internal/mem"
)

// forkedPair maps four pages with distinct contents in a fresh space
// and forks it, so parent and child share one page-table leaf.
func forkedPair(t *testing.T) (parent, child *Space, phys *mem.Physical, base uint64) {
	t.Helper()
	parent, phys = newSpace(64, mem.CommitHeuristic)
	v, err := parent.Map(0x100000, 4*mem.PageSize, Read|Write, MapOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		if err := parent.WriteBytes(v.Start+i*mem.PageSize, []byte{'A' + byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	child, err = parent.CloneCOW()
	if err != nil {
		t.Fatal(err)
	}
	return parent, child, phys, v.Start
}

func readByte(t *testing.T, s *Space, va uint64) byte {
	t.Helper()
	b := make([]byte, 1)
	if err := s.ReadBytes(va, b); err != nil {
		t.Fatal(err)
	}
	return b[0]
}

// TestParentWriteWhileChildLives: the parent writes one page of a
// leaf it shares with a live child. The write must copy exactly that
// page, and the child must still read the old bytes — a parent that
// reclaimed the frame in place would scribble on its child's memory.
func TestParentWriteWhileChildLives(t *testing.T) {
	parent, child, phys, base := forkedPair(t)
	x := base + 2*mem.PageSize
	copies := parent.meter.PageCopies
	alloc := phys.AllocatedPages()
	if err := parent.WriteBytes(x, []byte{'p'}); err != nil {
		t.Fatal(err)
	}
	if got := parent.meter.PageCopies - copies; got != 1 {
		t.Errorf("parent write copied %d pages, want 1", got)
	}
	if got := phys.AllocatedPages() - alloc; got != 1 {
		t.Errorf("parent write allocated %d frames, want 1", got)
	}
	if got := readByte(t, child, x); got != 'C' {
		t.Errorf("child reads %q at the parent-written page, want 'C'", got)
	}
	if got := readByte(t, parent, x); got != 'p' {
		t.Errorf("parent reads %q after its write, want 'p'", got)
	}
	for i := uint64(0); i < 4; i++ {
		if i == 2 {
			continue
		}
		want := 'A' + byte(i)
		if p, c := readByte(t, parent, base+i*mem.PageSize), readByte(t, child, base+i*mem.PageSize); p != want || c != want {
			t.Errorf("page %d: parent %q, child %q, want %q", i, p, c, want)
		}
	}
	child.Destroy()
	parent.Destroy()
	if got := phys.AllocatedPages(); got != 0 {
		t.Errorf("%d pages leaked", got)
	}
}

// TestParentWriteAfterChildExits: once the child is gone, the parent
// is again the sole owner of every frame, and a write reclaims the
// page in place without copying it.
func TestParentWriteAfterChildExits(t *testing.T) {
	parent, child, phys, base := forkedPair(t)
	child.Destroy()
	x := base + mem.PageSize
	copies := parent.meter.PageCopies
	alloc := phys.AllocatedPages()
	if err := parent.WriteBytes(x, []byte{'p'}); err != nil {
		t.Fatal(err)
	}
	if got := parent.meter.PageCopies - copies; got != 0 {
		t.Errorf("sole-owner write copied %d pages, want 0", got)
	}
	if got := phys.AllocatedPages(); got != alloc {
		t.Errorf("sole-owner write moved allocated pages %d -> %d", alloc, got)
	}
	if got := readByte(t, parent, x); got != 'p' {
		t.Errorf("parent reads %q after its write, want 'p'", got)
	}
	parent.Destroy()
	if got := phys.AllocatedPages(); got != 0 {
		t.Errorf("%d pages leaked", got)
	}
}
