package main

import (
	"fmt"
	"time"

	"repro/internal/addrspace"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/sim"
	"repro/sim/load"
	simnet "repro/sim/net"
)

// probeSamples is how many samples a probe aims for: enough that the
// 99th percentile has ten samples beyond it. A probe stops earlier
// when its time budget runs out, but never before minSamples.
const (
	probeSamples = 1010
	minSamples   = 11
)

// probe runs one sample at a time until it has probeSamples or budget
// is spent (and at least minSamples).
func probe(budget time.Duration, sample func() error) error {
	deadline := time.Now().Add(budget)
	for i := 0; i < probeSamples; i++ {
		if i >= minSamples && time.Now().After(deadline) {
			return nil
		}
		if err := sample(); err != nil {
			return err
		}
	}
	return nil
}

// ladder times each layer of the creation path on its own, from the
// kernel down to the frame allocator, plus the fault, capture,
// checkpoint and network probes, at cfg's heap, CPU count and
// strategy; server adds the serve-batch probe. Each probe checks that
// it did its work.
func ladder(tr *tracer, cfg load.Config, server bool, budget time.Duration) (int, error) {
	lad := tr.begin("ladder", 0)
	defer tr.end(lad)
	shape := cfg.Shape()
	boot := func() (*sim.System, error) {
		return sim.NewSystem(sim.WithRAM(shape.RAMBytes), sim.WithCPUs(shape.CPUs), sim.WithUserland("true"))
	}
	sys, err := boot()
	if err != nil {
		return 0, err
	}
	if err := sys.DirtyHost(cfg.HeapBytes, false); err != nil {
		return 0, err
	}
	heapPages := int(cfg.HeapBytes / mem.PageSize)
	k := sys.Kernel()
	space := sys.Host().Space()
	pt := space.PageTable()
	phys := space.Phys()
	meter := k.Meter()

	// The creation path, top to bottom: Cmd.Create and Process.Destroy
	// from the dirty parent, then Space.CloneCOW and Space.Destroy,
	// then Table.CloneCOW and Table.Destroy (dropping the clone's
	// frame references as addrspace does), then IncRef+DecRef pairs.
	// The layers are sampled in turn, so drift in host speed reaches
	// all of them alike and the self times subtract like with like.
	// One untimed round first: the first fork also downgrades the
	// parent's PTEs.
	warm, err := sys.Command("true").Via(cfg.Via).Create()
	if err != nil {
		return 0, err
	}
	warm.Destroy()
	var frames []mem.FrameID
	pt.Visit(func(_ uint64, e pagetable.PTE) pagetable.PTE {
		frames = append(frames, e.Frame())
		return e
	})
	refOps := min(1024, len(frames))
	refs0 := phys.Refs(frames[0])
	release := func(_ uint64, e pagetable.PTE) { phys.DecRef(e.Frame()) }
	if err := probe(4*budget, func() error {
		id := tr.begin("kernel.create", lad)
		p, err := sys.Command("true").Via(cfg.Via).Create()
		tr.end(id)
		if err != nil {
			return err
		}
		if p.CreationCost() <= 0 {
			return fmt.Errorf("kernel.create: zero creation cost")
		}
		id = tr.begin("kernel.destroy", lad)
		p.Destroy()
		tr.end(id)

		id = tr.begin("addrspace.clone", lad)
		child, err := space.CloneCOW()
		tr.end(id)
		if err != nil {
			return err
		}
		if child.RSS() != space.RSS() || child.RSS() < cfg.HeapBytes {
			return fmt.Errorf("addrspace.clone: child RSS %d, parent %d, heap %d", child.RSS(), space.RSS(), cfg.HeapBytes)
		}
		id = tr.begin("addrspace.destroy", lad)
		child.Destroy()
		tr.end(id)

		id = tr.begin("pagetable.clone", lad)
		c := pt.CloneCOW()
		tr.end(id)
		if c.Entries() != pt.Entries() || c.Entries() < heapPages {
			return fmt.Errorf("pagetable.clone: %d entries, parent %d, heap %d pages", c.Entries(), pt.Entries(), heapPages)
		}
		id = tr.begin("pagetable.destroy", lad)
		c.Destroy(release)
		tr.end(id)

		id = tr.begin("mem.ref", lad)
		for _, f := range frames[:refOps] {
			phys.IncRef(f)
			phys.DecRef(f)
		}
		tr.endOps(id, refOps)
		if r := phys.Refs(frames[0]); r != refs0 {
			return fmt.Errorf("mem.ref: refcount %d, want %d", r, refs0)
		}
		return nil
	}); err != nil {
		return 0, err
	}
	entries := pt.Entries()

	// mem: CopyFrame of the heap's frames, as a COW break does.
	copyOps := min(256, len(frames))
	copies := make([]mem.FrameID, copyOps)
	if err := probe(budget, func() error {
		id := tr.begin("mem.copy_frame", lad)
		for i, f := range frames[:copyOps] {
			nf, err := phys.CopyFrame(f)
			if err != nil {
				return err
			}
			copies[i] = nf
		}
		tr.endOps(id, copyOps)
		for i, nf := range copies {
			if nf == frames[i] {
				return fmt.Errorf("mem.copy_frame: copy aliases its source")
			}
			phys.DecRef(nf)
		}
		return nil
	}); err != nil {
		return 0, err
	}

	// addrspace COW faults: the parent writes its heap while a forked
	// child holds the old frames, as a fork snapshot does.
	heap := largestVMA(space)
	faultOps := min(256, heapPages)
	var child *addrspace.Space
	next := heap.Pages()
	if err := probe(budget, func() error {
		if next+uint64(faultOps) > heap.Pages() {
			if child != nil {
				child.Destroy()
			}
			c, err := space.CloneCOW()
			if err != nil {
				return err
			}
			child, next = c, 0
		}
		copies0 := meter.PageCopies
		id := tr.begin("addrspace.cow_fault", lad)
		for i := 0; i < faultOps; i++ {
			if err := space.Fault(heap.Start+(next+uint64(i))*mem.PageSize, addrspace.AccessWrite); err != nil {
				return err
			}
		}
		tr.endOps(id, faultOps)
		next += uint64(faultOps)
		if n := meter.PageCopies - copies0; n != uint64(faultOps) {
			return fmt.Errorf("addrspace.cow_fault: %d page copies for %d faults", n, faultOps)
		}
		return nil
	}); err != nil {
		return 0, err
	}
	if child != nil {
		child.Destroy()
	}

	// addrspace zero faults: first writes to fresh anonymous memory.
	zs := addrspace.New(phys, meter)
	if err := probe(budget, func() error {
		length := uint64(faultOps) * mem.PageSize
		vma, err := zs.Map(0, length, addrspace.Read|addrspace.Write, addrspace.MapOpts{Kind: addrspace.KindAnon, Name: "zero-probe"})
		if err != nil {
			return err
		}
		id := tr.begin("addrspace.zero_fault", lad)
		for i := 0; i < faultOps; i++ {
			if err := zs.Fault(vma.Start+uint64(i)*mem.PageSize, addrspace.AccessWrite); err != nil {
				return err
			}
		}
		tr.endOps(id, faultOps)
		if zs.RSS() != length {
			return fmt.Errorf("addrspace.zero_fault: RSS %d after faulting %d bytes", zs.RSS(), length)
		}
		return zs.Unmap(vma.Start, length)
	}); err != nil {
		return 0, err
	}

	// addrspace capture: the checkpoint's page-table walk.
	if err := probe(budget, func() error {
		id := tr.begin("addrspace.capture", lad)
		recs := space.CapturePages(false, false)
		tr.end(id)
		if len(recs) < heapPages {
			return fmt.Errorf("addrspace.capture: %d records for a %d-page heap", len(recs), heapPages)
		}
		return nil
	}); err != nil {
		return 0, err
	}

	// kernel checkpoint and restore of the strategy's migrant: a fork
	// child carries the heap, a spawned process does not.
	dst, err := boot()
	if err != nil {
		return 0, err
	}
	dk := dst.Kernel()
	if err := probe(budget, func() error {
		p, err := migrant(sys, cfg.Via)
		if err != nil {
			return err
		}
		defer k.DestroyProcess(p)
		id := tr.begin("kernel.checkpoint", lad)
		img, err := k.CheckpointProcess(p, kernel.CheckpointOpts{})
		tr.end(id)
		if err != nil {
			return err
		}
		if img.PageBytes() == 0 || (cfg.Via == sim.ForkExec && img.PageBytes() < cfg.HeapBytes) {
			return fmt.Errorf("kernel.checkpoint: %d image bytes", img.PageBytes())
		}
		id = tr.begin("kernel.restore", lad)
		rp, err := dk.RestoreProcess(img)
		tr.end(id)
		if err != nil {
			return err
		}
		if rp.Space().RSS() < img.PageBytes() {
			return fmt.Errorf("kernel.restore: RSS %d for a %d-byte image", rp.Space().RSS(), img.PageBytes())
		}
		dk.DestroyProcess(rp)
		return nil
	}); err != nil {
		return 0, err
	}

	// net: Fabric.Send and Fabric.DeliverNext of MTU-sized frames.
	fab, err := simnet.New(2, meter.Model)
	if err != nil {
		return 0, err
	}
	const netOps = 1024
	if err := probe(budget, func() error {
		now := k.Elapsed()
		id := tr.begin("net.send", lad)
		for i := 0; i < netOps; i++ {
			fab.Send(0, 1, "probe", uint64(i), 1500, now)
		}
		tr.endOps(id, netOps)
		id = tr.begin("net.deliver", lad)
		n := 0
		for fab.InFlight() > 0 {
			if _, ok := fab.DeliverNext(); ok {
				n++
			}
		}
		tr.endOps(id, netOps)
		if n != netOps {
			return fmt.Errorf("net: %d of %d packets delivered", n, netOps)
		}
		return nil
	}); err != nil {
		return 0, err
	}

	if server {
		if err := serveProbe(tr, lad, cfg, budget); err != nil {
			return 0, err
		}
	}
	return entries, nil
}

// serveProbe stamps servers from a warmed template and serves one
// small batch on each, as the cluster's reconcile loop does per step.
func serveProbe(tr *tracer, parent int, cfg load.Config, budget time.Duration) error {
	st, err := load.NewServerTemplate(cfg)
	if err != nil {
		return err
	}
	const batch = 3
	return probe(budget, func() error {
		id := tr.begin("sim.stamp", parent)
		srv, err := st.Stamp(cfg)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("load.serve_batch", parent)
		b, err := srv.ServeBatch(batch, 0)
		tr.end(id)
		if err != nil {
			return err
		}
		if b.Served != batch {
			return fmt.Errorf("load.serve_batch: served %d of %d", b.Served, batch)
		}
		_, err = srv.Drain()
		return err
	})
}

// migrant creates the process a migration would move: a fork child
// of the dirty host, or a spawned process for the other strategies.
func migrant(sys *sim.System, via sim.Strategy) (*kernel.Process, error) {
	if via == sim.ForkExec {
		return sys.Kernel().Fork(sys.Host())
	}
	p, err := sys.Command("true").Via(via).Create()
	if err != nil {
		return nil, err
	}
	return p.Raw(), nil
}

// largestVMA is the dirty heap DirtyHost mapped.
func largestVMA(s *addrspace.Space) *addrspace.VMA {
	var best *addrspace.VMA
	for _, v := range s.VMAs() {
		if best == nil || v.Len() > best.Len() {
			best = v
		}
	}
	return best
}
