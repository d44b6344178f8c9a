package sim_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/sim"
	"repro/sim/fault"
)

// templateEpisode is FuzzTemplateClone's body: boot a machine, run a
// fuzzer-chosen number of warm-up requests, fork a fuzzer-chosen number
// of children that stay alive (sharing page-table leaves with the host,
// one of them after a COW write), Snapshot mid-workload, stamp a
// fuzzer-chosen number of clones, arm a different random fault
// schedule on each clone *after* stamping, and drive requests through
// all of them, logging every outcome. It enforces the template
// invariants as it goes — no clone's faults or writes perturb the
// frozen master, nor do the live source's writes and exits, every
// clone returns to its post-stamp baseline once its schedule is
// disarmed and its children reaped, frame refcounts are conserved on
// every machine, and two pristine clones produce identical metrics —
// and returns a transcript that must replay byte-for-byte for the same
// inputs.
func templateEpisode(via sim.Strategy, warmups, kids, nClones int, seed, perMille uint64) (string, error) {
	sys, err := sim.NewSystem(sim.WithRAM(64<<20), sim.WithUserland("true"))
	if err != nil {
		return "", err
	}
	if err := sys.DirtyHost(256<<10, false); err != nil {
		return "", err
	}
	// The NIC is machine state too: attach a fabric address and land
	// two frames before the freeze, so every clone must come up with
	// the address and the receive counters intact (the regression that
	// motivated this: CloneInto once dropped the nic field wholesale).
	addr := 1 + int(seed%100)
	sys.Kernel().NetAttach(addr)
	sys.Kernel().NetInject(kernel.NetFrame{Src: 9, Dst: addr, Tag: seed % 1000, Bytes: 64})
	sys.Kernel().NetInject(kernel.NetFrame{Src: 9, Dst: addr, Tag: (seed + 1) % 1000, Bytes: 192})
	// Clean warm-up, then freeze mid-workload: the snapshot point is
	// fuzzer-chosen, not a quiesced machine.
	for i := 0; i < warmups; i++ {
		if err := sys.Command("true").Via(via).Run(); err != nil {
			return "", fmt.Errorf("warmup %d: %w", i, err)
		}
	}
	// Live fork children: the host's page-table leaves are shared with
	// each of them when the snapshot splits them. The first child and
	// then the host COW-write a page, so the snapshot also meets leaves
	// a write has already split.
	k := sys.Kernel()
	ws := workset(sys)
	var children []*kernel.Process
	for i := 0; i < kids; i++ {
		c, err := k.Fork(sys.Host())
		if err != nil {
			return "", fmt.Errorf("fork child %d: %w", i, err)
		}
		children = append(children, c)
		if i == 0 {
			if err := c.Space().WriteBytes(ws, []byte{'c'}); err != nil {
				return "", err
			}
			if err := sys.Host().Space().WriteBytes(ws+mem.PageSize, []byte{'h'}); err != nil {
				return "", err
			}
		}
	}
	if err := k.CheckFrameRefs(); err != nil {
		return "", fmt.Errorf("source before snapshot: %w", err)
	}
	tpl, err := sys.Snapshot()
	if err != nil {
		return "", err
	}
	tk := tpl.Kernel()
	baseProcs := tk.ProcessCount()
	basePages := tk.Phys().AllocatedPages()
	for _, m := range []*kernel.Kernel{k, tk} {
		if err := m.CheckFrameRefs(); err != nil {
			return "", fmt.Errorf("after snapshot: %w", err)
		}
	}
	// The source runs on: the host writes its working set while the
	// children live, then they exit. None of it may reach the template.
	if err := sys.Host().Space().Touch(ws, 2*mem.PageSize, addrspace.AccessWrite); err != nil {
		return "", err
	}
	for _, c := range children {
		k.DestroyProcess(c)
	}
	if err := k.CheckFrameRefs(); err != nil {
		return "", fmt.Errorf("source after its children exit: %w", err)
	}

	var out strings.Builder
	for ci := 0; ci < nClones; ci++ {
		clone, err := tpl.Clone()
		if err != nil {
			return "", fmt.Errorf("clone %d: %w", ci, err)
		}
		// The clone's NIC must carry the master's address and counters.
		ck := clone.Kernel()
		if got := ck.NetAddr(); got != addr {
			return "", fmt.Errorf("clone %d NIC addr = %d, want %d", ci, got, addr)
		}
		if _, fr, _, br := ck.NetStats(); fr != 2 || br != 256 {
			return "", fmt.Errorf("clone %d NIC recv counters = %d frames/%dB, want 2/256B", ci, fr, br)
		}
		base := snapshot(clone)
		// Post-clone fault schedule, different per clone.
		clone.SetFaultSchedule(fault.Random(seed+uint64(ci), ci, perMille, fault.ENOMEM))
		for i := 0; i < 4; i++ {
			err := clone.Command("true").Via(via).Run()
			fmt.Fprintf(&out, "clone%d req%d err=%v\n", ci, i, err)
		}
		clone.SetFaultSchedule(fault.Observe())
		if got := snapshot(clone); got != base {
			return "", fmt.Errorf("clone %d leaked under faults: %+v, baseline %+v\ntranscript:\n%s",
				ci, got, base, out.String())
		}
		// The clone's host writes the working set its copies of the
		// fork children share, then they exit.
		if err := clone.Host().Space().Touch(ws, 2*mem.PageSize, addrspace.AccessWrite); err != nil {
			return "", fmt.Errorf("clone %d host write: %w", ci, err)
		}
		for _, c := range children {
			ck.DestroyProcess(ck.Lookup(c.Pid))
		}
		if err := ck.CheckFrameRefs(); err != nil {
			return "", fmt.Errorf("clone %d: %w", ci, err)
		}
		fmt.Fprintf(&out, "clone%d injected=%d\n", ci, clone.Faults().Injected())
	}

	// No clone's faults or writes may have reached the frozen master.
	if got := tk.ProcessCount(); got != baseProcs {
		return "", fmt.Errorf("template process count moved: %d, want %d", got, baseProcs)
	}
	if got := tk.Phys().AllocatedPages(); got != basePages {
		return "", fmt.Errorf("template resident pages moved: %d, want %d", got, basePages)
	}
	if got := tk.NetAddr(); got != addr {
		return "", fmt.Errorf("template NIC addr moved: %d, want %d", got, addr)
	}
	if err := tk.CheckFrameRefs(); err != nil {
		return "", fmt.Errorf("template after stamping: %w", err)
	}

	// Cross-clone bleed check: two pristine clones stamped after all
	// the faulty ones must behave identically to each other.
	var stats [2]string
	for i := range stats {
		c, err := tpl.Clone()
		if err != nil {
			return "", err
		}
		if err := c.Command("true").Via(via).Run(); err != nil {
			return "", fmt.Errorf("pristine clone %d: %w", i, err)
		}
		stats[i] = fmt.Sprintf("%+v", c.Stats())
	}
	if stats[0] != stats[1] {
		return "", fmt.Errorf("pristine clones diverged (cross-clone bleed):\nfirst:  %s\nsecond: %s",
			stats[0], stats[1])
	}
	out.WriteString(stats[0] + "\n")
	return out.String(), nil
}

// workset returns the base of the host's DirtyHost working set.
func workset(sys *sim.System) uint64 {
	for _, v := range sys.Host().Space().VMAs() {
		if v.Name == "workset" {
			return v.Start
		}
	}
	panic("sim: host has no workset")
}

// FuzzTemplateClone throws random snapshot points, live fork
// children, clone counts, and post-clone fault schedules at the
// template machinery: whatever the
// fuzzer invents, Snapshot/Clone must not panic, must not let one
// clone's state bleed into a sibling or the frozen master, must not
// leak on fault-torn requests, and must replay deterministically —
// the failing tuple is its own reproducer. Runs in CI fuzz-smoke.
func FuzzTemplateClone(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint8(2), uint64(1), uint64(100))
	f.Add(uint8(0), uint8(0), uint8(3), uint64(42), uint64(500))
	f.Add(uint8(4), uint8(3), uint8(1), uint64(7), uint64(0))
	f.Add(uint8(1), uint8(2), uint8(2), uint64(0xdeadbeef), uint64(950))
	f.Add(uint8(1), uint8(6), uint8(2), uint64(3), uint64(200))
	f.Add(uint8(3), uint8(9), uint8(1), uint64(5), uint64(0))
	f.Fuzz(func(t *testing.T, viaIdx, warmups, nClones uint8, seed, perMille uint64) {
		all := allStrategies()
		via := all[int(viaIdx)%len(all)]
		// warmups packs two choices: the warm-up request count and
		// how many fork children are alive at the snapshot.
		w := int(warmups) % 4
		kids := int(warmups/4) % 3
		n := 1 + int(nClones)%3
		perMille %= 1001
		first, err := templateEpisode(via, w, kids, n, seed, perMille)
		if err != nil {
			t.Fatal(err)
		}
		second, err := templateEpisode(via, w, kids, n, seed, perMille)
		if err != nil {
			t.Fatalf("replay failed where first run passed: %v", err)
		}
		if first != second {
			t.Fatalf("episode (via=%v warmups=%d kids=%d clones=%d seed=%d rate=%d‰) did not replay deterministically:\nfirst:\n%s\nsecond:\n%s",
				via, w, kids, n, seed, perMille, first, second)
		}
	})
}
