package fleet_test

import (
	"testing"

	"repro/sim"
	"repro/sim/load"
)

// TestMachineWarmupScalesWithHeapUnderFork: the cluster premise at
// machine granularity — a fork machine's warm-up grows with the dirty
// heap, a spawn machine's stays flat. Each fleet machine is a
// load.Server, so the warm-up is measured on one directly.
func TestMachineWarmupScalesWithHeapUnderFork(t *testing.T) {
	warm := func(via sim.Strategy, heap uint64) uint64 {
		t.Helper()
		s, err := load.NewServer(load.Config{Via: via, HeapBytes: heap, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Drain()
		return s.WarmupNanos()
	}
	forkSmall, forkBig := warm(sim.ForkExec, 8<<20), warm(sim.ForkExec, 64<<20)
	if forkBig <= forkSmall {
		t.Errorf("fork warm-up flat across heap growth: %d vs %d", forkSmall, forkBig)
	}
	spawnSmall, spawnBig := warm(sim.Spawn, 8<<20), warm(sim.Spawn, 64<<20)
	// Spawn still dirties the bigger heap; only the pool-creation part
	// must stay flat. Compare the fork:spawn gap instead of absolutes.
	if forkBig-forkSmall <= spawnBig-spawnSmall {
		t.Errorf("heap growth cost fork %d vs spawn %d, want fork to pay more",
			forkBig-forkSmall, spawnBig-spawnSmall)
	}
}
