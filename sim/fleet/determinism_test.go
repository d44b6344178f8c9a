package fleet_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/sim"
	"repro/sim/fleet"
	"repro/sim/load"
)

// runJSON runs the spec at a given GOMAXPROCS and returns the
// byte-stable report.
func runJSON(t *testing.T, spec fleet.Spec, gomaxprocs int) []byte {
	t.Helper()
	prev := runtime.GOMAXPROCS(gomaxprocs)
	defer runtime.GOMAXPROCS(prev)
	res, err := fleet.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFleetDeterministicAcrossGOMAXPROCS is the fleet determinism
// regression behind the CI gate: the same Spec must produce a
// byte-identical aggregate JSON report whether the host runs the
// machines on one goroutine or eight. A difference means host
// scheduling leaked into the merge (ordering, shared state, or a
// nondeterministic field that escaped the json:"-" fence).
func TestFleetDeterministicAcrossGOMAXPROCS(t *testing.T) {
	specs := []fleet.Spec{
		{Machines: 8, Scenario: fleet.Uniform, Via: sim.ForkExec, Requests: 6, HeapBytes: 8 << 20},
		{Machines: 8, Scenario: fleet.RollingRestart, Via: sim.ForkExec, Requests: 4, HeapBytes: 8 << 20},
		{Machines: 8, Scenario: fleet.RollingRestart, Via: sim.Spawn, Requests: 4, HeapBytes: 8 << 20},
		{Machines: 6, Scenario: fleet.Heterogeneous, Via: sim.ForkExec, Requests: 3, HeapBytes: 4 << 20},
		{Machines: 4, Scenario: fleet.Surge, Via: sim.Spawn, Requests: 4, HeapBytes: 4 << 20, SurgeFactor: 3},
		// Chaos: injected fault waves are pure functions of
		// (FaultSeed, machine id, virtual time, op counter), so the
		// report — losses included — inherits the byte-stability
		// guarantee at any host parallelism.
		{Machines: 6, Scenario: fleet.Chaos, Via: sim.ForkExec, Requests: 8, HeapBytes: 8 << 20, FaultSeed: 3},
		{Machines: 6, Scenario: fleet.Chaos, Via: sim.Spawn, Requests: 8, HeapBytes: 8 << 20, FaultSeed: 3},
		// Distributed loads: each fleet machine is a whole network
		// cell (client, balancer/shards, Server backends over the
		// sim/net fabric). The cell is single-threaded, so the fleet
		// guarantee extends to it unchanged — wire chaos included.
		{Machines: 4, Scenario: fleet.Uniform, Load: load.NetLB, Via: sim.ForkExec, Requests: 12, HeapBytes: 8 << 20},
		{Machines: 4, Scenario: fleet.Chaos, Load: load.KVShard, Via: sim.Spawn, Requests: 12, HeapBytes: 8 << 20, FaultSeed: 5},
		// The rebalance wave: each machine live-migrates its resident
		// worker through a two-machine cell; the cell is
		// single-threaded, so downtime, pages shipped, and vfork
		// fallbacks are all byte-stable at any parallelism.
		{Machines: 4, Scenario: fleet.Rebalance, Via: sim.ForkExec, Requests: 3, HeapBytes: 8 << 20},
		{Machines: 4, Scenario: fleet.Rebalance, Via: sim.VforkExec, Requests: 3, HeapBytes: 4 << 20},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(fmt.Sprintf("%s-%v", spec.Scenario, spec.Via), func(t *testing.T) {
			serial := runJSON(t, spec, 1)
			parallel := runJSON(t, spec, 8)
			if !bytes.Equal(serial, parallel) {
				t.Errorf("fleet report differs between GOMAXPROCS=1 and GOMAXPROCS=8:\nserial:\n%s\nparallel:\n%s",
					serial, parallel)
			}
			// And against itself: same spec, same bytes, full stop.
			if again := runJSON(t, spec, 8); !bytes.Equal(parallel, again) {
				t.Errorf("two GOMAXPROCS=8 runs differ:\n%s\nvs\n%s", parallel, again)
			}
		})
	}
}

// TestColdBootMatchesStamped pins Spec.ColdBoot as host-only for the
// waves that boot a replacement load.Server mid-machine: a cold-booted
// replacement and one stamped from the server-template cache must give
// the same report bytes, at GOMAXPROCS 1 and 8. The vfork rebalance
// reaches the replacement through its refused-migration fallback.
func TestColdBootMatchesStamped(t *testing.T) {
	specs := []fleet.Spec{
		{Machines: 3, Scenario: fleet.RollingRestart, Via: sim.ForkExec, Requests: 3, HeapBytes: 8 << 20, KeepPerMachine: true},
		{Machines: 3, Scenario: fleet.RollingRestart, Via: sim.VforkExec, Requests: 3, HeapBytes: 8 << 20, KeepPerMachine: true},
		{Machines: 3, Scenario: fleet.Rebalance, Via: sim.VforkExec, Requests: 3, HeapBytes: 4 << 20, KeepPerMachine: true},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(fmt.Sprintf("%s-%v", spec.Scenario, spec.Via), func(t *testing.T) {
			cold := spec
			cold.ColdBoot = true
			want := runJSON(t, cold, 1)
			for _, r := range []struct {
				name  string
				spec  fleet.Spec
				procs int
			}{{"cold", cold, 8}, {"stamped", spec, 1}, {"stamped", spec, 8}} {
				if got := runJSON(t, r.spec, r.procs); !bytes.Equal(want, got) {
					t.Errorf("%s report at GOMAXPROCS=%d differs from cold boot at GOMAXPROCS=1:\n%s\nvs\n%s",
						r.name, r.procs, want, got)
				}
			}
		})
	}
}

// TestParallelismDoesNotChangeResult pins the same guarantee for the
// explicit Spec.Parallelism knob: the worker-pool width is a
// host-performance control, never a semantic one.
func TestParallelismDoesNotChangeResult(t *testing.T) {
	base := fleet.Spec{Machines: 6, Scenario: fleet.Uniform, Via: sim.ForkExec, Requests: 5, HeapBytes: 4 << 20}
	var first []byte
	for _, par := range []int{1, 2, 8} {
		spec := base
		spec.Parallelism = par
		res, err := fleet.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		data, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = data
			continue
		}
		if !bytes.Equal(first, data) {
			t.Errorf("Parallelism=%d changed the report:\n%s\nvs\n%s", par, first, data)
		}
	}
}

// TestForEachDeterministicError: the exported parallel-for returns the
// lowest failing index's error at any worker count.
func TestForEachDeterministicError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		calls := make([]bool, 16)
		err := fleet.ForEach(workers, 16, func(i int) error {
			calls[i] = true
			if i == 5 || i == 11 {
				return &indexErr{i}
			}
			return nil
		})
		ie, ok := err.(*indexErr)
		if !ok || ie.i != 5 {
			t.Fatalf("workers=%d: err = %v, want index 5", workers, err)
		}
		for i := 0; i <= 5; i++ {
			if !calls[i] {
				t.Errorf("workers=%d: index %d never ran", workers, i)
			}
		}
	}
}

type indexErr struct{ i int }

func (e *indexErr) Error() string { return "fail" }
