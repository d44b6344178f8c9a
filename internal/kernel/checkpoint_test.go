package kernel

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/mem"
	"repro/internal/vfs"
)

// ckErr asserts err is a *CheckpointError whose reason mentions want.
func ckErr(t *testing.T, err error, want string) {
	t.Helper()
	var ce *CheckpointError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CheckpointError about %q", err, want)
	}
	if !strings.Contains(ce.Reason, want) {
		t.Errorf("refusal %q does not mention %q", ce.Reason, want)
	}
}

// TestCheckpointRefusals enumerates the fork-entangled states that
// cannot be serialized one-sided — the paper's claim as a type error.
func TestCheckpointRefusals(t *testing.T) {
	k, _ := boot(t, Options{})
	host := k.NewSynthetic("host", nil)

	// A vfork child borrows the parent's space: refused.
	child, err := k.ForkWithMode(host, ForkVfork)
	if err != nil {
		t.Fatal(err)
	}
	_, err = k.CheckpointProcess(child, CheckpointOpts{})
	ckErr(t, err, "borrowed")

	// The parent has an unreaped child: refused too.
	_, err = k.CheckpointProcess(host, CheckpointOpts{})
	ckErr(t, err, "children")
	k.DestroyProcess(child)

	// A pipe end's peer stays behind: refused.
	r, w := vfs.NewPipe()
	rfd, err := host.FDs().Install(r, false, 0)
	if err != nil {
		w.Release()
		t.Fatal(err)
	}
	_, err = k.CheckpointProcess(host, CheckpointOpts{})
	ckErr(t, err, "pipe")
	host.FDs().Close(rfd)
	w.Release()

	// MAP_SHARED memory is visible to other processes on the source
	// machine: refused.
	sh, err := host.Space().Map(0, mem.PageSize, addrspace.Read|addrspace.Write,
		addrspace.MapOpts{Name: "shm", Shared: true})
	if err != nil {
		t.Fatal(err)
	}
	_, err = k.CheckpointProcess(host, CheckpointOpts{})
	ckErr(t, err, "MAP_SHARED")
	if err := host.Space().Unmap(sh.Start, sh.Len()); err != nil {
		t.Fatal(err)
	}

	// Disentangled, the same process serializes fine.
	if _, err := k.CheckpointProcess(host, CheckpointOpts{}); err != nil {
		t.Errorf("disentangled checkpoint failed: %v", err)
	}

	// Dead processes refuse.
	k.DestroyProcess(host)
	_, err = k.CheckpointProcess(host, CheckpointOpts{})
	ckErr(t, err, "not alive")
}

// TestCheckpointRestoreAcrossMachines migrates a process blocked in
// net_recv to a second machine: the restored thread re-executes the
// blocked syscall, parks on the *target* NIC's queue, and the target
// then behaves byte-for-byte like a machine that booted the program
// itself — same echo, same counters.
func TestCheckpointRestoreAcrossMachines(t *testing.T) {
	const addr = 4
	src := bootNetEcho(t, addr)
	p := src.Lookup(1)
	if p == nil {
		t.Fatal("no init on source")
	}
	img, err := src.CheckpointProcess(p, CheckpointOpts{})
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if img.PageBytes() == 0 {
		t.Fatal("image carries no pages")
	}
	if len(img.Threads) != 1 || !img.Threads[0].Runnable {
		t.Fatalf("threads = %+v, want one runnable (blocked syscalls restart)", img.Threads)
	}

	dst, _ := boot(t, Options{})
	dst.NetAttach(addr)
	rp, err := dst.RestoreProcess(img)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if rp.Name != p.Name {
		t.Errorf("restored name = %q, want %q", rp.Name, p.Name)
	}
	// Run: the thread retries net_recv and parks on dst's queue.
	if err := dst.Run(RunLimits{MaxInstructions: 1_000_000}); err != nil {
		t.Fatalf("run restored: %v", err)
	}
	if n := dst.NetPendingRecv(); n != 1 {
		t.Fatalf("restored NetPendingRecv = %d, want 1", n)
	}

	// The migrated machine now echoes exactly like a cold one.
	cold := bootNetEcho(t, addr)
	drive := func(k *Kernel) []NetFrame {
		t.Helper()
		k.NetInject(NetFrame{Src: 9, Dst: addr, Tag: 42, Bytes: 128})
		k.NetInject(NetFrame{Src: 9, Dst: addr, Tag: 0, Bytes: 0})
		if err := k.Run(RunLimits{MaxInstructions: 1_000_000}); err != nil {
			t.Fatalf("drive: %v", err)
		}
		return k.NetDrainOutbox()
	}
	coldOut, dstOut := drive(cold), drive(dst)
	if len(dstOut) != len(coldOut) || len(dstOut) != 1 || dstOut[0] != coldOut[0] {
		t.Errorf("migrated echo = %+v, cold = %+v", dstOut, coldOut)
	}
	if n := dst.LiveProcessCount(); n != 0 {
		t.Errorf("%d live processes after shutdown, want 0 (restored proc must exit+reap)", n)
	}

	// The source still owns its original: checkpoint was a read.
	if p.State() != ProcAlive {
		t.Error("source process died from being checkpointed")
	}
}

// TestRestoreMissingFile: an image referencing a file the target does
// not carry fails cleanly and leaves no half-restored process behind.
func TestRestoreMissingFile(t *testing.T) {
	src := bootNetEcho(t, 2)
	p := src.Lookup(1)
	img, err := src.CheckpointProcess(p, CheckpointOpts{})
	if err != nil {
		t.Fatal(err)
	}

	dst := mustNew(t, Options{}) // no ulib: /bin/netecho does not exist
	before := dst.ProcessCount()
	pages := dst.Phys().AllocatedPages()
	if _, err := dst.RestoreProcess(img); err == nil {
		t.Fatal("restore with missing backing file succeeded")
	}
	if got := dst.ProcessCount(); got != before {
		t.Errorf("process count %d -> %d: restore leaked a process", before, got)
	}
	if got := dst.Phys().AllocatedPages(); got != pages {
		t.Errorf("allocated pages %d -> %d: restore leaked frames", pages, got)
	}
}

// TestLatestPages: restore installs exactly the last record per address
// in ascending va order, whether the records are one ascending capture,
// several appended capture rounds or in arbitrary order.
func TestLatestPages(t *testing.T) {
	reference := func(pages []addrspace.PageRecord) []int {
		last := map[uint64]int{}
		for i := range pages {
			last[pages[i].VA] = i
		}
		idxs := make([]int, 0, len(last))
		for _, i := range last {
			idxs = append(idxs, i)
		}
		sort.Slice(idxs, func(a, b int) bool { return pages[idxs[a]].VA < pages[idxs[b]].VA })
		return idxs
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var pages []addrspace.PageRecord
		rounds := 1 + rng.Intn(32)
		if trial%4 == 0 {
			rounds = 1 // one capture walk, what restores see
		}
		for r := 0; r < rounds; r++ {
			for va := uint64(0); va < 64; va++ {
				if r == 0 || rng.Intn(4) == 0 {
					pages = append(pages, addrspace.PageRecord{VA: va << 12})
				}
			}
		}
		if trial%4 == 3 {
			rng.Shuffle(len(pages), func(i, j int) { pages[i], pages[j] = pages[j], pages[i] })
		}
		got, want := latestPages(pages), reference(pages)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d rounds): latestPages = %v, want %v", trial, rounds, got, want)
		}
	}
	if got := latestPages(nil); len(got) != 0 {
		t.Errorf("latestPages(nil) = %v", got)
	}
}
