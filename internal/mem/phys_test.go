package mem

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/errno"
)

func newPhys(ram, swap uint64, pol CommitPolicy) *Physical {
	return NewPhysical(cost.NewMeter(cost.DefaultModel()), ram, swap, pol)
}

func TestAllocFreeRoundtrip(t *testing.T) {
	p := newPhys(1<<20, 0, CommitHeuristic) // 256 frames
	if got := p.TotalPages(); got != 256 {
		t.Fatalf("TotalPages = %d, want 256", got)
	}
	var frames []FrameID
	for i := 0; i < 256; i++ {
		f, err := p.Alloc()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		frames = append(frames, f)
	}
	if _, err := p.Alloc(); !errors.Is(err, errno.ENOMEM) {
		t.Fatalf("257th alloc: err = %v, want ENOMEM", err)
	}
	if p.FreePages() != 0 {
		t.Errorf("FreePages = %d, want 0", p.FreePages())
	}
	for _, f := range frames {
		if !p.DecRef(f) {
			t.Errorf("DecRef(%d) did not free", f)
		}
	}
	if p.FreePages() != 256 || p.AllocatedPages() != 0 {
		t.Errorf("after free: free=%d allocated=%d", p.FreePages(), p.AllocatedPages())
	}
}

func TestRefcountSharing(t *testing.T) {
	p := newPhys(1<<20, 0, CommitHeuristic)
	f, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	p.IncRef(f)
	p.IncRef(f)
	if got := p.Refs(f); got != 3 {
		t.Fatalf("Refs = %d, want 3", got)
	}
	if p.DecRef(f) {
		t.Error("freed at refs=2")
	}
	if p.DecRef(f) {
		t.Error("freed at refs=1")
	}
	if !p.DecRef(f) {
		t.Error("not freed at refs=0")
	}
}

func TestLazyMaterialisation(t *testing.T) {
	p := newPhys(1<<20, 0, CommitHeuristic)
	f, _ := p.Alloc()
	if p.Materialised(f) {
		t.Error("fresh frame materialised")
	}
	buf := make([]byte, 16)
	p.Read(f, 0, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("fresh frame not zero")
		}
	}
	// All-zero writes stay lazy.
	p.Write(f, 100, make([]byte, 64))
	if p.Materialised(f) {
		t.Error("all-zero write materialised the frame")
	}
	// A real write materialises.
	p.Write(f, 100, []byte{1, 2, 3})
	if !p.Materialised(f) {
		t.Error("nonzero write did not materialise")
	}
	p.Read(f, 99, buf[:5])
	want := []byte{0, 1, 2, 3, 0}
	for i, b := range want {
		if buf[i] != b {
			t.Errorf("read[%d] = %d, want %d", i, buf[i], b)
		}
	}
}

// TestRecycledFrameReadsZero pins that a frame array recycled from a
// freed or zeroed frame carries none of its old bytes: a new frame
// written only at bytes 100–107 reads zero everywhere else.
func TestRecycledFrameReadsZero(t *testing.T) {
	p := newPhys(1<<20, 0, CommitHeuristic)
	junk := bytes.Repeat([]byte{0xa5}, PageSize)
	want := make([]byte, PageSize)
	copy(want[100:], "8 bytes!")
	got := make([]byte, PageSize)
	for round := 0; round < 8; round++ {
		f, _ := p.Alloc()
		p.Write(f, 0, junk)
		if round%2 == 1 {
			p.ZeroFrame(f)
		}
		p.DecRef(f)
		g, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		p.Write(g, 100, want[100:108])
		p.Read(g, 0, got)
		if !bytes.Equal(got, want) {
			i := 0
			for got[i] == want[i] {
				i++
			}
			t.Fatalf("round %d: recycled frame byte %d = %#x, want %#x", round, i, got[i], want[i])
		}
		p.DecRef(g)
	}
}

func TestCopyFrame(t *testing.T) {
	p := newPhys(1<<20, 0, CommitHeuristic)
	src, _ := p.Alloc()
	p.Write(src, 0, []byte("payload"))
	dst, err := p.CopyFrame(src)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	p.Read(dst, 0, buf)
	if string(buf) != "payload" {
		t.Errorf("copy = %q", buf)
	}
	// Copies are independent.
	p.Write(dst, 0, []byte("CHANGED"))
	p.Read(src, 0, buf)
	if string(buf) != "payload" {
		t.Errorf("source mutated: %q", buf)
	}
	// Lazy source copies stay lazy.
	lz, _ := p.Alloc()
	cp, _ := p.CopyFrame(lz)
	if p.Materialised(cp) {
		t.Error("copy of lazy frame materialised")
	}
}

func TestHugeFrames(t *testing.T) {
	p := newPhys(8<<20, 0, CommitHeuristic) // 2048 pages
	h, err := p.AllocHuge()
	if err != nil {
		t.Fatal(err)
	}
	if !h.IsHuge() || h.Size() != HugeSize || h.Pages() != 512 {
		t.Fatalf("huge frame geometry wrong: %v %d %d", h.IsHuge(), h.Size(), h.Pages())
	}
	if got := p.AllocatedPages(); got != 512 {
		t.Errorf("AllocatedPages = %d, want 512", got)
	}
	p.Write(h, HugeSize-4, []byte{9, 9, 9, 9})
	buf := make([]byte, 4)
	p.Read(h, HugeSize-4, buf)
	if buf[0] != 9 {
		t.Error("huge frame write/read failed")
	}
	// Copy of a huge frame is huge.
	cp, err := p.CopyFrame(h)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.IsHuge() {
		t.Error("copy of huge frame not huge")
	}
	p.DecRef(h)
	p.DecRef(cp)
	if p.AllocatedPages() != 0 {
		t.Errorf("leak: %d pages", p.AllocatedPages())
	}
	// Budget: 2048 pages = at most 4 huge frames.
	var hs []FrameID
	for {
		f, err := p.AllocHuge()
		if err != nil {
			break
		}
		hs = append(hs, f)
	}
	if len(hs) != 4 {
		t.Errorf("allocated %d huge frames from 8MiB, want 4", len(hs))
	}
}

func TestCommitPolicies(t *testing.T) {
	// Strict: limit = RAM + swap.
	p := newPhys(1<<20, 1<<20, CommitStrict) // 256+256 pages
	if err := p.Reserve(512); err != nil {
		t.Fatalf("reserve to limit: %v", err)
	}
	if err := p.Reserve(1); !errors.Is(err, errno.ENOMEM) {
		t.Fatalf("over-reserve: %v, want ENOMEM", err)
	}
	p.Unreserve(512)

	// Heuristic: cumulative overcommit is allowed; only a single
	// request larger than the limit fails.
	h := newPhys(1<<20, 0, CommitHeuristic) // limit 256 pages
	for i := 0; i < 3; i++ {
		if err := h.Reserve(200); err != nil {
			t.Fatalf("heuristic reserve %d: %v", i, err)
		}
	}
	if h.Committed() != 600 {
		t.Errorf("heuristic committed = %d, want 600 (overcommitted)", h.Committed())
	}
	if err := h.Reserve(10_000); !errors.Is(err, errno.ENOMEM) {
		t.Fatalf("heuristic absurd reserve: %v, want ENOMEM", err)
	}

	// Always: anything goes.
	a := newPhys(1<<20, 0, CommitAlways)
	if err := a.Reserve(1 << 40); err != nil {
		t.Fatalf("always reserve: %v", err)
	}
}

func TestZeroFrame(t *testing.T) {
	p := newPhys(1<<20, 0, CommitHeuristic)
	f, _ := p.Alloc()
	p.Write(f, 0, []byte{1})
	p.ZeroFrame(f)
	if p.Materialised(f) {
		t.Error("zeroed frame still materialised")
	}
}

// TestQuickAllocConservation: under any interleaving of allocs and
// frees, allocated+free == total and no frame is handed out twice.
func TestQuickAllocConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		p := newPhys(256<<12, 0, CommitHeuristic) // 256 frames
		live := map[FrameID]bool{}
		var order []FrameID
		for _, op := range ops {
			if op%3 != 0 && len(order) > 0 {
				// free the oldest
				id := order[0]
				order = order[1:]
				delete(live, id)
				p.DecRef(id)
			} else {
				id, err := p.Alloc()
				if err != nil {
					continue
				}
				if live[id] {
					return false // double allocation
				}
				live[id] = true
				order = append(order, id)
			}
			if p.AllocatedPages()+p.FreePages() != p.TotalPages() {
				return false
			}
			if p.AllocatedPages() != uint64(len(live)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickWriteReadRoundtrip: whatever is written at any offset reads
// back, and neighbouring bytes are untouched.
func TestQuickWriteReadRoundtrip(t *testing.T) {
	p := newPhys(1<<20, 0, CommitHeuristic)
	f, _ := p.Alloc()
	shadow := make([]byte, PageSize)
	fn := func(off uint16, data []byte) bool {
		o := int(off) % PageSize
		n := len(data)
		if o+n > PageSize {
			n = PageSize - o
		}
		p.Write(f, o, data[:n])
		copy(shadow[o:], data[:n])
		got := make([]byte, PageSize)
		p.Read(f, 0, got)
		for i := range shadow {
			if got[i] != shadow[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
