package repro

// One benchmark per figure/table of the paper's evaluation, plus
// ablation and substrate microbenchmarks, all driven through the
// public sim API. Process-creation benchmarks report both host ns/op
// (how fast the simulator runs) and the virtual-time metric
// "virt-µs/op" (what the paper's axes show); the virtual numbers are
// the reproduction, the host numbers are just the simulator's own
// speed.
//
//	go test -bench=. -benchmem
//
// regenerates everything; README "Regenerating the paper's evaluation"
// lists the forkbench equivalents.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/addrspace"
	"repro/internal/experiments"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/ulib"
	"repro/sim"
	"repro/sim/load"
)

const (
	kib = uint64(1) << 10
	mib = uint64(1) << 20
)

// benchSystem boots a machine whose host process is a dirty parent of
// the given size — the x-axis of Figure 1.
func benchSystem(b *testing.B, size uint64, huge bool) *sim.System {
	b.Helper()
	sys, err := sim.NewSystem(sim.WithRAM(4<<30), sim.WithUserland("true"))
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.DirtyHost(size, huge); err != nil {
		b.Fatal(err)
	}
	return sys
}

// benchCreation is the shared body for Figure 1's lines: create a
// parked child through one strategy, record the virtual latency,
// destroy it.
func benchCreation(b *testing.B, st sim.Strategy, size uint64, huge bool) {
	sys := benchSystem(b, size, huge)
	measure := func() time.Duration {
		p, err := sys.Command("true").Via(st).Create()
		if err != nil {
			b.Fatal(err)
		}
		virt := p.CreationCost()
		p.Destroy()
		return virt
	}
	// Warm-up: the first fork additionally downgrades the parent's
	// PTEs to read-only.
	measure()
	var virt time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		virt += measure()
	}
	b.StopTimer()
	b.ReportMetric(float64(virt)/float64(b.N)/1e3, "virt-µs/op")
}

// BenchmarkFigure1 regenerates every line of Figure 1 (creation
// latency vs parent size). Sub-benchmark names give method and size.
func BenchmarkFigure1(b *testing.B) {
	sizes := []uint64{1 * mib, 16 * mib, 256 * mib, 1024 * mib}
	for _, size := range sizes {
		name := experiments.HumanBytes(size)
		b.Run("fork+exec/"+name, func(b *testing.B) {
			benchCreation(b, sim.ForkExec, size, false)
		})
		b.Run("vfork+exec/"+name, func(b *testing.B) {
			benchCreation(b, sim.VforkExec, size, false)
		})
		b.Run("posix_spawn/"+name, func(b *testing.B) {
			benchCreation(b, sim.Spawn, size, false)
		})
		b.Run("fork+exec-huge/"+name, func(b *testing.B) {
			benchCreation(b, sim.ForkExec, size, true)
		})
	}
}

// BenchmarkTable1 runs the full probed semantics matrix (its cost is
// dominated by the O(1)-in-parent-size probe, which forks a 128 MiB
// parent).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCOWTax regenerates E3: per-page write cost before and
// after a fork.
func BenchmarkCOWTax(b *testing.B) {
	var parentPerPage float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.CowTax(16 * mib)
		if err != nil {
			b.Fatal(err)
		}
		parentPerPage = float64(res.ParentPerPage)
	}
	b.ReportMetric(parentPerPage, "virt-ns/page")
}

// BenchmarkForkHuge regenerates E4's headline pair: fork+exec of a
// 256 MiB parent with 4 KiB vs 2 MiB pages.
func BenchmarkForkHuge(b *testing.B) {
	b.Run("4KiB", func(b *testing.B) { benchCreation(b, sim.ForkExec, 256*mib, false) })
	b.Run("2MiB", func(b *testing.B) { benchCreation(b, sim.ForkExec, 256*mib, true) })
}

// BenchmarkEagerFork regenerates ablation 1: 1970s fork that copies
// every resident page at fork time.
func BenchmarkEagerFork(b *testing.B) {
	b.Run("cow", func(b *testing.B) { benchCreation(b, sim.ForkExec, 64*mib, false) })
	b.Run("eager", func(b *testing.B) { benchCreation(b, sim.EagerForkExec, 64*mib, false) })
}

// BenchmarkEmulatedFork regenerates E7's worst line: user-space fork
// over cross-process operations.
func BenchmarkEmulatedFork(b *testing.B) {
	benchCreation(b, sim.EmulatedFork, 16*mib, false)
}

// BenchmarkOvercommit regenerates E5 (the full policy × size matrix).
func BenchmarkOvercommit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Overcommit(128 * mib); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompose regenerates E6 (all four §4.2 demonstrations,
// executed as VM programs).
func BenchmarkCompose(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Compose(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpawnScale regenerates E7's throughput sweep.
func BenchmarkSpawnScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Scale(1*mib, 64*mib); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadPrefork is the §5 server claim as a benchmark: a
// prefork server draining synthetic requests, one worker process per
// request, swept over creation strategy × server heap. The virt-req/s
// metric is the reproduction's number: flat for spawn and the builder,
// collapsing with heap size for fork+exec. BENCH_PR2.json pins these
// values (regenerate with `forkbench load -sweep -json BENCH_PR2.json`).
func BenchmarkLoadPrefork(b *testing.B) {
	vias := []struct {
		name string
		via  sim.Strategy
	}{
		{"fork", sim.ForkExec},
		{"spawn", sim.Spawn},
		{"builder", sim.Builder},
	}
	for _, heap := range []uint64{64 * mib, 256 * mib} {
		for _, v := range vias {
			b.Run(fmt.Sprintf("%s/%s", v.name, experiments.HumanBytes(heap)), func(b *testing.B) {
				var reqPerVSec float64
				for i := 0; i < b.N; i++ {
					m, err := load.Run(load.Config{
						Scenario:  load.Prefork,
						Via:       v.via,
						Requests:  64,
						HeapBytes: heap,
					})
					if err != nil {
						b.Fatal(err)
					}
					reqPerVSec = m.RequestsPerVSec
				}
				b.ReportMetric(reqPerVSec, "virt-req/s")
			})
		}
	}
}

// BenchmarkLoadForkStorm measures burst creation: 256 simultaneously
// live children per wave — the scenario that hammers the scheduler's
// run queue and the frame allocator.
func BenchmarkLoadForkStorm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := load.Run(load.Config{
			Scenario: load.ForkStorm, Via: sim.Spawn,
			Requests: 1, Workers: 256, HeapBytes: 16 * mib,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate microbenchmarks -----------------------------------

// BenchmarkDemandFault measures the simulator's page-fault path. The
// faulted region is bounded and recycled (off the timer) so b.N can
// grow past physical memory.
func BenchmarkDemandFault(b *testing.B) {
	sys, err := sim.NewSystem(sim.WithRAM(8<<30), sim.WithUserland("true"))
	if err != nil {
		b.Fatal(err)
	}
	space := sys.Host().Space()
	const pages = 1 << 18 // 1 GiB region
	remap := func() uint64 {
		vma, err := space.Map(0x10000000, pages*4096, addrspace.Read|addrspace.Write, addrspace.MapOpts{})
		if err != nil {
			b.Fatal(err)
		}
		return vma.Start
	}
	start := remap()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%pages == 0 {
			b.StopTimer()
			if err := space.Unmap(start, pages*4096); err != nil {
				b.Fatal(err)
			}
			start = remap()
			b.StartTimer()
		}
		if err := space.Fault(start+uint64(i%pages)*4096, addrspace.AccessWrite); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCloneCOW measures the raw page-table COW clone (the fork
// inner loop) for a 64 MiB parent, timed together with the child's
// teardown: the clone links the parent's page-table leaves and the
// destroy unlinks them, so timing the clone alone would hide half the
// host work.
func BenchmarkCloneCOW(b *testing.B) {
	sys := benchSystem(b, 64*mib, false)
	space := sys.Host().Space()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := space.CloneCOW()
		if err != nil {
			b.Fatal(err)
		}
		c.Destroy()
	}
}

// BenchmarkCloneCOWWrite is BenchmarkCloneCOW with the child writing
// one page in every 2 MiB of the parent's 64 MiB working set before it
// exits: each write takes the child a private copy of a shared
// page-table leaf before it copies the page, the host work a lazy
// clone defers rather than saves.
func BenchmarkCloneCOWWrite(b *testing.B) {
	sys := benchSystem(b, 64*mib, false)
	space := sys.Host().Space()
	var ws *addrspace.VMA
	for _, v := range space.VMAs() {
		if v.Name == "workset" {
			ws = v
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := space.CloneCOW()
		if err != nil {
			b.Fatal(err)
		}
		for va := ws.Start; va < ws.End; va += mem.HugeSize {
			if err := c.WriteBytes(va, []byte{1}); err != nil {
				b.Fatal(err)
			}
		}
		c.Destroy()
	}
}

// BenchmarkVMExecution measures host-side interpreter speed
// (instructions per host second) on a tight arithmetic loop.
func BenchmarkVMExecution(b *testing.B) {
	const spin = `
_start:
    li r1, 1000000000
loop:
    addi r0, r0, 1
    bne r0, r1, loop
    sys SYS_EXIT
`
	sys, err := sim.NewSystem(sim.WithUserland("true"), sim.WithProgram("/bin/spin", spin))
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Command("/bin/spin").Start(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := sys.Kernel().Run(kernel.RunLimits{MaxInstructions: uint64(b.N)}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPipeTransfer measures the syscall+pipe path end to end: a
// VM pingpong round trip per iteration (amortised). The b.N rounds run
// as pingpong invocations of at most 100k rounds each.
func BenchmarkPipeTransfer(b *testing.B) {
	sys, err := sim.NewSystem()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for left := b.N; left > 0; left -= 100000 {
		if err := sys.Command("pingpong", itoa(min(left, 100000))).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssemble measures the toolchain: assembling the whole ulib
// runtime plus a representative program via System.InstallProgram.
func BenchmarkAssemble(b *testing.B) {
	sys, err := sim.NewSystem(sim.WithUserland("true"))
	if err != nil {
		b.Fatal(err)
	}
	src := ulib.Sources["pingpong"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.InstallProgram("/bin/pingpong", src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpawnVM measures end-to-end VM spawn throughput: one
// spawn+wait of /bin/true per iteration, driven by spawnloop
// invocations of at most 20k spawns each.
func BenchmarkSpawnVM(b *testing.B) {
	sys, err := sim.NewSystem(sim.WithRAM(1 << 30))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for left := b.N; left > 0; left -= 20000 {
		if err := sys.Command("spawnloop", itoa(min(left, 20000)), "/bin/true").Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkPipeVFS measures a pipe write/read through the sim File
// layer alone (no VM).
func BenchmarkPipeVFS(b *testing.B) {
	sys, err := sim.NewSystem(sim.WithUserland("true"))
	if err != nil {
		b.Fatal(err)
	}
	r, w := sys.Pipe()
	buf := make([]byte, 512)
	b.SetBytes(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Write(buf); err != nil {
			b.Fatal(err)
		}
		if _, err := r.Read(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadSMPServer measures the SMP worst case end to end: a
// multithreaded server snapshotted mid-traffic on 4 CPUs, fork (with
// its per-remote-core shootdown tax) vs the fork-less snapshot.
func BenchmarkLoadSMPServer(b *testing.B) {
	for _, v := range []struct {
		name string
		via  sim.Strategy
	}{{"fork", sim.ForkExec}, {"forkless", sim.Spawn}} {
		b.Run(v.name, func(b *testing.B) {
			var ipis uint64
			for i := 0; i < b.N; i++ {
				m, err := load.Run(load.Config{
					Scenario: load.SMPServer, Via: v.via,
					CPUs: 4, Requests: 4, HeapBytes: 16 * mib,
				})
				if err != nil {
					b.Fatal(err)
				}
				ipis = m.TLBShootdowns
			}
			b.ReportMetric(float64(ipis), "shootdown-IPIs")
		})
	}
}
