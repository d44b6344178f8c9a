package mem

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/cost"
)

// readFrame returns the first n bytes of f's contents.
func readFrame(p *Physical, f FrameID, n int) []byte {
	buf := make([]byte, n)
	p.Read(f, 0, buf)
	return buf
}

// TestCloneHostCOW pins the host-COW contract end to end: a clone
// reads the template's bytes without copying them, a write on any
// machine — clone, sibling, or the live snapshot source — breaks
// sharing for that frame only, and nobody else's view moves.
func TestCloneHostCOW(t *testing.T) {
	src := newPhys(8<<20, 0, CommitHeuristic) // room for a huge frame too
	f, err := src.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	src.Write(f, 0, []byte("original"))
	hf, err := src.AllocHuge()
	if err != nil {
		t.Fatal(err)
	}
	src.Write(hf, 0, []byte("huge-orig"))

	// Snapshot: the live source must also be marked shared, since it
	// keeps running and may write the same frames.
	tpl := src.CloneHost(src.meter, true)
	a := tpl.CloneHost(tpl.meter, false)
	b := tpl.CloneHost(tpl.meter, false)

	for name, p := range map[string]*Physical{"template": tpl, "clone a": a, "clone b": b} {
		if got := readFrame(p, f, 8); !bytes.Equal(got, []byte("original")) {
			t.Errorf("%s reads %q, want %q", name, got, "original")
		}
		if got := readFrame(p, hf, 9); !bytes.Equal(got, []byte("huge-orig")) {
			t.Errorf("%s huge frame reads %q, want %q", name, got, "huge-orig")
		}
	}

	// First write on a clone breaks sharing per frame; the template,
	// the sibling, and the source never see it.
	a.Write(f, 0, []byte("aaaaaaaa"))
	if got := readFrame(tpl, f, 8); !bytes.Equal(got, []byte("original")) {
		t.Errorf("clone write reached the template: %q", got)
	}
	if got := readFrame(b, f, 8); !bytes.Equal(got, []byte("original")) {
		t.Errorf("clone write reached a sibling: %q", got)
	}
	if got := readFrame(src, f, 8); !bytes.Equal(got, []byte("original")) {
		t.Errorf("clone write reached the snapshot source: %q", got)
	}

	// The live source writing post-snapshot must break sharing too,
	// not scribble on bytes the template aliases (the markSrc half).
	src.Write(hf, 0, []byte("src-moved"))
	if got := readFrame(tpl, hf, 9); !bytes.Equal(got, []byte("huge-orig")) {
		t.Errorf("source write reached the template: %q", got)
	}
	if got := readFrame(a, hf, 9); !bytes.Equal(got, []byte("huge-orig")) {
		t.Errorf("source write reached a clone: %q", got)
	}
}

// TestCloneOutOfOrderTeardown is the regression test for the latent
// single-owner assumption in the frame table: freeing a frame must
// only drop *this* Physical's entry, never assume it is the last (or
// only) machine holding those bytes. A clone frees a shared frame,
// reallocates the recycled FrameID, and writes fresh contents; the
// template and a sibling — torn down later, in a different order —
// must still read the original bytes, and the recycled frame must
// come back zero, not resurrect the template's data.
func TestCloneOutOfOrderTeardown(t *testing.T) {
	src := newPhys(1<<20, 0, CommitHeuristic)
	f, err := src.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	src.Write(f, 0, []byte("payload"))

	tpl := src.CloneHost(src.meter, true)
	a := tpl.CloneHost(tpl.meter, false)
	b := tpl.CloneHost(tpl.meter, false)

	// Clone a tears its frame down first, while template and sibling
	// still alias the bytes.
	if !a.DecRef(f) {
		t.Fatal("DecRef on clone a did not free (refcounts are per-machine)")
	}
	f2, err := a.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if f2 != f {
		t.Fatalf("free list did not recycle: got frame %d, want %d", f2, f)
	}
	// The recycled frame must be lazily zero — its old data entry was
	// dropped at free time, not left to resurrect the template's bytes.
	if got := readFrame(a, f2, 7); !bytes.Equal(got, make([]byte, 7)) {
		t.Errorf("recycled frame resurrected stale bytes: %q", got)
	}
	a.Write(f2, 0, []byte("rewrite"))

	// Later teardown of the other machines, out of creation order:
	// template first, then sibling — each still reads the original
	// bytes right up until its own free, and nothing double-frees.
	if got := readFrame(tpl, f, 7); !bytes.Equal(got, []byte("payload")) {
		t.Errorf("template bytes moved after clone teardown: %q", got)
	}
	if !tpl.DecRef(f) {
		t.Fatal("template DecRef did not free")
	}
	if got := readFrame(b, f, 7); !bytes.Equal(got, []byte("payload")) {
		t.Errorf("sibling bytes moved after template teardown: %q", got)
	}
	if !b.DecRef(f) {
		t.Fatal("sibling DecRef did not free")
	}
	if got := readFrame(a, f2, 7); !bytes.Equal(got, []byte("rewrite")) {
		t.Errorf("clone a's rewrite lost after siblings tore down: %q", got)
	}

	// Everyone's books balance independently.
	if got := tpl.AllocatedPages(); got != 0 {
		t.Errorf("template allocated pages = %d, want 0", got)
	}
	if got := b.AllocatedPages(); got != 0 {
		t.Errorf("sibling allocated pages = %d, want 0", got)
	}
	if got := a.AllocatedPages(); got != 1 {
		t.Errorf("clone a allocated pages = %d, want 1", got)
	}
}

// TestZeroFrameDropsSharing pins ZeroFrame's interaction with host
// COW: zeroing a shared frame on one machine reverts it to the lazy
// zero state locally and leaves every other machine's bytes alone.
func TestZeroFrameDropsSharing(t *testing.T) {
	src := newPhys(1<<20, 0, CommitHeuristic)
	f, err := src.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	src.Write(f, 0, []byte("shared"))
	tpl := src.CloneHost(src.meter, true)
	a := tpl.CloneHost(tpl.meter, false)

	a.ZeroFrame(f)
	if got := readFrame(a, f, 6); !bytes.Equal(got, make([]byte, 6)) {
		t.Errorf("zeroed frame reads %q, want zeroes", got)
	}
	if got := readFrame(tpl, f, 6); !bytes.Equal(got, []byte("shared")) {
		t.Errorf("ZeroFrame on a clone reached the template: %q", got)
	}
	if a.SharedFrames() != 0 {
		t.Errorf("clone still counts %d shared frames after ZeroFrame", a.SharedFrames())
	}
	if tpl.SharedFrames() != 1 {
		t.Errorf("template shared frames = %d, want 1", tpl.SharedFrames())
	}
}

// TestRecyclingSparesTemplateBytes frees, zeroes and rewrites frames on
// the live snapshot source and on clones stamped and churned in
// parallel. Each machine may recycle only arrays it owns alone: the
// template keeps reading its original bytes, its shared-frame count
// never drops, and every machine reads back what it wrote itself.
func TestRecyclingSparesTemplateBytes(t *testing.T) {
	const n = 15
	orig := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, PageSize) }
	src := newPhys(1<<20, 0, CommitHeuristic)
	frames := make([]FrameID, n)
	for i := range frames {
		frames[i], _ = src.Alloc()
		src.Write(frames[i], 0, orig(i))
	}
	tpl := src.CloneHost(src.meter, true)
	shared := tpl.SharedFrames()
	if shared != n {
		t.Fatalf("template shares %d frames, want %d", shared, n)
	}
	checkTemplate := func(stage string) {
		t.Helper()
		got := make([]byte, PageSize)
		for i, f := range frames {
			if tpl.Read(f, 0, got); !bytes.Equal(got, orig(i)) {
				t.Errorf("%s: template frame %d no longer reads its original bytes", stage, f)
			}
		}
		if got := tpl.SharedFrames(); got < shared {
			t.Errorf("%s: template shared frames dropped from %d to %d", stage, shared, got)
		}
	}

	// churn frees a third of the frames outright, COW-breaks a third
	// by writing them before freeing them, zeroes the rest, then
	// allocates and fills fresh frames with mark, which are likely
	// backed by the arrays just recycled.
	churn := func(p *Physical, mark byte) error {
		for i, f := range frames {
			switch i % 3 {
			case 0:
				p.DecRef(f)
			case 1:
				p.Write(f, 0, []byte{mark})
				p.DecRef(f)
			case 2:
				p.ZeroFrame(f)
			}
		}
		fill := bytes.Repeat([]byte{mark}, PageSize)
		var fresh []FrameID
		for range 2 * n / 3 {
			f, err := p.Alloc()
			if err != nil {
				return err
			}
			p.Write(f, 0, fill)
			fresh = append(fresh, f)
		}
		got := make([]byte, PageSize)
		for _, f := range fresh {
			if p.Read(f, 0, got); !bytes.Equal(got, fill) {
				t.Errorf("machine %#x: frame %d lost its own write", mark, f)
			}
		}
		return nil
	}

	if err := churn(src, 0xee); err != nil {
		t.Fatal(err)
	}
	checkTemplate("after the source's churn")

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(mark byte) {
			defer wg.Done()
			c := tpl.CloneHost(cost.NewMeter(cost.DefaultModel()), false)
			if err := churn(c, mark); err != nil {
				t.Error(err)
			}
		}(byte(0xc0 + w))
	}
	wg.Wait()
	checkTemplate("after parallel clones' churn")
}

// TestStampOfUnmarkedSourceMarksIt covers the one way an aliased array
// could reach the recycle pool: stamping (markSrc false) a source whose
// frames were never marked. CloneHost marks them anyway, so the source
// freeing and reusing its frames never reaches the clone's bytes.
func TestStampOfUnmarkedSourceMarksIt(t *testing.T) {
	src := newPhys(1<<20, 0, CommitHeuristic)
	f, _ := src.Alloc()
	src.Write(f, 0, []byte("stamped"))
	c := src.CloneHost(cost.NewMeter(cost.DefaultModel()), false)
	src.DecRef(f)
	g, _ := src.Alloc()
	src.Write(g, 0, []byte("scribble"))
	if got := readFrame(c, f, 7); !bytes.Equal(got, []byte("stamped")) {
		t.Errorf("clone reads %q after the source recycled the frame, want %q", got, "stamped")
	}
}
