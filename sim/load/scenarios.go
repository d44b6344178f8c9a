package load

import (
	"strconv"

	"repro/internal/addrspace"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/sim"
	"repro/sim/fault"
)

// prefork is the fork-per-request web server: every synthetic request
// is handled by a freshly created worker process. The server keeps one
// request in flight per CPU (closed loop with a CPU-wide window), so
// on a multicore machine the workers genuinely overlap in virtual
// time. Under fork the per-request cost includes duplicating the
// server's page tables — Θ(heap) — so throughput falls as the server
// grows; under spawn or the builder it is flat. This is §5's server
// claim as a workload.
//
// With Config.Faults installed the loop runs in chaos mode: a failed
// creation or a worker lost to an injected fault (ENOMEM, OOM kill, a
// kill-wave crash via fault.PointKill) counts against FailedRequests
// and the server keeps serving — the survival metric E11 reports —
// instead of aborting the run.
func (d *driver) prefork() error {
	window := d.cfg.Window
	if window < 1 {
		window = DefaultWindow(Prefork, d.cfg.CPUs)
	}
	chaos := d.cfg.Faults != nil
	var inflight []*sim.Cmd
	launched := 0
	abort := func(err error) error {
		for _, cmd := range inflight {
			cmd.Process.Kill()
			cmd.Wait()
		}
		return err
	}
	for launched < d.cfg.Requests || len(inflight) > 0 {
		for len(inflight) < window && launched < d.cfg.Requests {
			cmd := d.sys.Command("true").Via(d.cfg.Via)
			launched++
			if err := cmd.Start(); err != nil {
				if chaos {
					d.failed++ // creation refused: the request is lost, the server survives
					continue
				}
				return abort(err)
			}
			d.creations++
			inflight = append(inflight, cmd)
		}
		if len(inflight) == 0 {
			continue // every launch in this window failed under chaos
		}
		// Sample while workers are live, so the peak reflects the
		// per-request footprint (stack, image, mirrored page table),
		// not just the server heap.
		d.sample()
		cmd := inflight[0]
		inflight = inflight[1:]
		if chaos && d.k.Faults().Fail(fault.PointKill, 1) != 0 {
			// Kill wave: the worker crashes mid-request.
			cmd.Process.Kill()
		}
		switch err := cmd.Wait(); {
		case err == nil:
			d.requests++
		case chaos:
			d.failed++ // worker died (injected ENOMEM, OOM kill, crash)
		default:
			return abort(err)
		}
	}
	return nil
}

// pipeline is the shell farm: each unit of work builds an
// echo|cat|…|cat pipeline of Workers stages wired through kernel
// pipes, starts every stage through the configured strategy, and
// drains it. The final stage writes to the console (discarded).
func (d *driver) pipeline() error {
	depth := d.cfg.Workers
	if depth < 2 {
		depth = 2
	}
	for i := 0; i < d.cfg.Requests; i++ {
		cmds := make([]*sim.Cmd, depth)
		cmds[0] = d.sys.Command("echo", "req", strconv.Itoa(i))
		for j := 1; j < depth; j++ {
			cmds[j] = d.sys.Command("cat")
		}
		files := make([]*sim.File, 0, 2*(depth-1))
		for j := 0; j < depth-1; j++ {
			r, w := d.sys.Pipe()
			cmds[j].Stdout = w
			cmds[j+1].Stdin = r
			files = append(files, r, w)
		}
		closeAll := func() {
			for _, f := range files {
				f.Close()
			}
		}
		for j := range cmds {
			if err := cmds[j].Via(d.cfg.Via).Start(); err != nil {
				// Tear down the stages already launched so the
				// error surfaces instead of a wedged machine.
				for _, started := range cmds[:j] {
					started.Process.Kill()
					started.Wait()
				}
				closeAll()
				return err
			}
			d.creations++
		}
		// Drop the host's pipe ends so EOF propagates stage to stage.
		closeAll()
		d.sample()
		for j := range cmds {
			if err := cmds[j].Wait(); err != nil {
				return err
			}
		}
		d.requests++
	}
	return nil
}

// checkpoint is the Redis-style snapshotter: each cycle takes a
// point-in-time snapshot of the server's heap, then the server keeps
// mutating MutateBytes of it while the snapshot is held — every
// mutated page pays a COW break (the PageCopies column). The snapshot
// mechanism follows the strategy:
//
//   - ForkExec/VforkExec: kernel COW fork — the cheap snapshot the
//     paper concedes fork is still good for (vfork itself cannot
//     snapshot, it shares the address space, so it gets COW fork too);
//   - EagerForkExec: the 1970s ablation, physically copying the heap;
//   - Spawn/Builder/EmulatedFork: the fork-less path — a §5 kernel
//     without fork snapshots through cross-process reads and writes,
//     paying Θ(resident bytes) in user space.
func (d *driver) checkpoint() error {
	host := d.sys.Host()
	heap := d.cfg.HeapBytes
	mutate := d.cfg.MutateBytes
	if mutate > heap {
		mutate = heap
	}
	off := uint64(0)
	for i := 0; i < d.cfg.Requests; i++ {
		snap, err := d.snapshot(host)
		if err != nil {
			return err
		}
		d.creations++
		if mutate > 0 {
			if off+mutate > heap {
				off = 0
			}
			if err := host.Space().Touch(d.heapStart+off, mutate, addrspace.AccessWrite); err != nil {
				d.k.DestroyProcess(snap)
				return err
			}
			off += mutate
		}
		d.sample()
		// The snapshot has been "persisted"; release the old view.
		d.k.DestroyProcess(snap)
		d.requests++
	}
	return nil
}

func (d *driver) snapshot(host *kernel.Process) (*kernel.Process, error) {
	switch d.cfg.Via {
	case sim.ForkExec, sim.VforkExec:
		return d.k.Fork(host)
	case sim.EagerForkExec:
		return d.k.ForkWithMode(host, kernel.ForkEager)
	default:
		return core.EmulateFork(d.k, host)
	}
}

// smpserver is the Redis/SMP worst case §5 warns about: a real
// multithreaded server (one spinning worker thread per CPU, each
// rewriting its own slice of a dirty heap) takes periodic fork
// snapshots *mid-traffic*. Every snapshot COW-downgrades the server's
// page tables while its threads are live on other cores — an IPI per
// remote core — and every post-snapshot heap write pays a COW break
// plus another IPI round. The fork-less strategies snapshot through
// the cross-process API instead: Θ(heap) copying, but no shootdowns,
// so their cost stays flat as cores grow.
//
// Requests counts snapshot cycles. ServerCPUNanos reports how much
// CPU time the server's threads still got — the service capacity the
// snapshot tax did not consume.
func (d *driver) smpserver() error {
	threads := d.cfg.CPUs
	if threads > 8 {
		threads = 8 // smpspin has 8 worker stacks
	}
	srv := d.sys.Command("smpspin",
		strconv.Itoa(threads), strconv.FormatUint(d.cfg.HeapBytes, 10))
	if err := srv.Via(sim.Spawn).Start(); err != nil {
		return err
	}
	server := srv.Process.Raw()
	cpuBase := uint64(server.TotalCPUTicks())

	// One traffic slice is enough virtual time for every worker to
	// rewrite its slice at least once between snapshots.
	const slice = 5_000_000 // 5ms virtual
	finish := func(err error) error {
		srv.Process.Kill()
		if werr := srv.Wait(); err == nil && werr != nil && sim.AsExitError(werr) == nil {
			return werr
		}
		d.serverCPU = uint64(server.TotalCPUTicks()) - cpuBase
		return err
	}
	for i := 0; i < d.cfg.Requests; i++ {
		// Serve traffic, then snapshot mid-flight.
		if err := d.k.Run(kernel.RunLimits{MaxTicks: slice}); err != nil {
			return finish(err)
		}
		snap, err := d.snapshot(server)
		if err != nil {
			return finish(err)
		}
		d.creations++
		// The snapshot is held while traffic continues: the
		// workers' writes break COW pages one by one, each paying
		// the remote-core invalidations.
		if err := d.k.Run(kernel.RunLimits{MaxTicks: slice}); err != nil {
			d.k.DestroyProcess(snap)
			return finish(err)
		}
		d.sample()
		// Snapshot "persisted": release the old view.
		d.k.DestroyProcess(snap)
		d.requests++
	}
	return finish(nil)
}

// buildfarm is the parallel build: a driver keeps 2*CPUs compile jobs
// in flight, each a freshly created process that allocates and
// write-touches a private working set (4 MiB, a compiler-sized
// footprint) and exits. On a multicore machine the jobs overlap; the
// creation strategy decides whether job launch serializes on the
// parent's page tables (fork) or stays flat (spawn/builder).
func (d *driver) buildfarm() error {
	window := d.cfg.Window
	if window < 1 {
		window = DefaultWindow(BuildFarm, d.cfg.CPUs)
	}
	var inflight []*sim.Cmd
	launched := 0
	abort := func(err error) error {
		for _, cmd := range inflight {
			cmd.Process.Kill()
			cmd.Wait()
		}
		return err
	}
	for d.requests < uint64(d.cfg.Requests) {
		for len(inflight) < window && launched < d.cfg.Requests {
			cmd := d.sys.Command("hog", "4").Via(d.cfg.Via)
			if err := cmd.Start(); err != nil {
				return abort(err)
			}
			d.creations++
			launched++
			inflight = append(inflight, cmd)
		}
		d.sample()
		cmd := inflight[0]
		inflight = inflight[1:]
		if err := cmd.Wait(); err != nil {
			return abort(err)
		}
		d.requests++
	}
	return nil
}

// forkstorm launches Workers children back to back without waiting,
// holding every one alive at once — the burst that floods the run
// queue — then drains and reaps the whole wave, Requests times.
func (d *driver) forkstorm() error {
	burst := d.cfg.Workers
	for wave := 0; wave < d.cfg.Requests; wave++ {
		cmds := make([]*sim.Cmd, 0, burst)
		for j := 0; j < burst; j++ {
			cmd := d.sys.Command("true").Via(d.cfg.Via)
			if err := cmd.Start(); err != nil {
				for _, started := range cmds {
					started.Process.Kill()
					started.Wait()
				}
				return err
			}
			cmds = append(cmds, cmd)
			d.creations++
		}
		d.sample()
		for _, cmd := range cmds {
			if err := cmd.Wait(); err != nil {
				return err
			}
			d.requests++
		}
	}
	return nil
}
