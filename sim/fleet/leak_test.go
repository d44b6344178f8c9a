package fleet

import (
	"fmt"
	"testing"

	"repro/sim"
	"repro/sim/load"
)

// TestRollingRestartLeaksNothing is the fleet leak invariant: after a
// rolling restart — warm pool created through any strategy, traffic
// served, pool torn down — every machine's process, physical-frame and
// commit counts must be exactly back at the post-warm-up baseline. A fleet
// that leaks a page per restart wave loses a machine's worth of RAM
// over enough deploys.
func TestRollingRestartLeaksNothing(t *testing.T) {
	for _, via := range append(sim.Strategies(), sim.EagerForkExec) {
		via := via
		t.Run(via.String(), func(t *testing.T) {
			spec := Spec{
				Machines:  3,
				Scenario:  RollingRestart,
				Via:       via,
				Requests:  4,
				HeapBytes: 8 << 20,
			}.withDefaults()
			tc := load.NewTemplates()
			for id := 0; id < spec.Machines; id++ {
				_, d, err := runMachine(spec, id, tc)
				if err != nil {
					t.Fatalf("machine %d: %v", id, err)
				}
				if d == nil {
					t.Fatalf("machine %d: rolling runner returned no drain books", id)
				}
				if d.EndProcs != d.BaseProcs || d.EndPages != d.BasePages || d.EndCommit != d.BaseCommit {
					t.Errorf("machine %d leaked: %+v", id, *d)
				}
			}
		})
	}
}

// TestMachineDerivationDeterministic pins the per-machine derivation:
// the same (spec, id) pair always resolves to the same machine, and
// the heterogeneous ladder cycles 1/2/4/8 with traffic scaled to the
// core count.
func TestMachineDerivationDeterministic(t *testing.T) {
	spec := Spec{Machines: 8, Scenario: Heterogeneous, Requests: 5}.withDefaults()
	for id := 0; id < spec.Machines; id++ {
		a, b := spec.machine(id), spec.machine(id)
		if a != b {
			t.Errorf("machine(%d) not deterministic: %+v vs %+v", id, a, b)
		}
		wantCPUs := heteroLadder[id%len(heteroLadder)]
		if a.CPUs != wantCPUs {
			t.Errorf("machine %d: %d CPUs, want %d", id, a.CPUs, wantCPUs)
		}
		if a.Requests != spec.Requests*wantCPUs {
			t.Errorf("machine %d: %d requests, want %d", id, a.Requests, spec.Requests*wantCPUs)
		}
	}
}

// TestSpecValidation pins the error paths.
func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Machines: -1},
		{Machines: 1<<20 + 1},
		{Shards: -1},
		{CPUs: 65},
		{CPUs: -2},
		{Requests: -4},
		{Workers: -3},
		{SurgeFactor: -1},
		{Scenario: "bogus"},
		{Load: "bogus"},
	}
	for _, spec := range bad {
		if _, err := Run(spec); err == nil {
			t.Errorf("Run(%+v) succeeded, want error", spec)
		}
	}
	if _, err := ParseScenario("bogus"); err == nil {
		t.Error("ParseScenario(bogus) succeeded")
	}
	for _, s := range Scenarios() {
		got, err := ParseScenario(string(s))
		if err != nil || got != s {
			t.Errorf("ParseScenario(%q) = %v, %v", s, got, err)
		}
	}
}

// TestRunAllMatchesSerial pins RunAll's contract: position-merged
// results identical to running each config serially, and the lowest
// failing index's error reported.
func TestRunAllMatchesSerial(t *testing.T) {
	cfgs := []load.Config{
		{Scenario: load.Prefork, Via: sim.ForkExec, Requests: 5, HeapBytes: 4 << 20},
		{Scenario: load.Prefork, Via: sim.Spawn, Requests: 5, HeapBytes: 4 << 20},
		{Scenario: load.ForkStorm, Via: sim.Spawn, Requests: 1, Workers: 8, HeapBytes: 4 << 20},
		{Scenario: load.Prefork, Via: sim.Builder, Requests: 3, HeapBytes: 4 << 20, CPUs: 2},
	}
	parallel, err := RunAll(8, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel) != len(cfgs) {
		t.Fatalf("%d results for %d configs", len(parallel), len(cfgs))
	}
	for i, cfg := range cfgs {
		serial, err := load.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", parallel[i]) != fmt.Sprintf("%+v", serial) {
			t.Errorf("config %d: parallel result diverged from serial:\n%+v\nvs\n%+v", i, parallel[i], serial)
		}
	}

	// An invalid config in the middle: RunAll reports it, and the
	// error is the lowest failing index's regardless of host timing.
	broken := append([]load.Config{}, cfgs...)
	broken[1].Scenario = "bogus"
	if _, err := RunAll(8, broken); err == nil {
		t.Error("RunAll with a broken config succeeded")
	}
}

// TestAggregateMergesInMachineOrder checks the aggregate math on a
// hand-built fleet: sums, makespan, fleet peak RSS, and restart
// totals.
func TestAggregateMergesInMachineOrder(t *testing.T) {
	machines := []MachineMetrics{
		{
			Machine: 0, CPUs: 1,
			Phases: []*load.Metrics{
				{Requests: 10, Creations: 10, VirtualNanos: 100, PeakRSSBytes: 500, PageCopies: 3},
				{Requests: 5, Creations: 5, VirtualNanos: 50, PeakRSSBytes: 800, PageCopies: 1},
			},
			RestartNanos:    25,
			RequestsPerVSec: 2,
		},
		{
			Machine: 1, CPUs: 2,
			Phases: []*load.Metrics{
				{Requests: 20, Creations: 22, VirtualNanos: 300, PeakRSSBytes: 600, TLBShootdowns: 7},
			},
			RequestsPerVSec: 3,
		},
	}
	agg := aggregate(machines)
	if agg.Machines != 2 || agg.TotalRequests != 35 || agg.TotalCreations != 37 {
		t.Errorf("totals: %+v", agg)
	}
	if agg.MaxVirtualNanos != 300 || agg.TotalVirtualNanos != 475 {
		t.Errorf("virtual time: max %d total %d, want 300/475", agg.MaxVirtualNanos, agg.TotalVirtualNanos)
	}
	if agg.FleetPeakRSSBytes != 800+600 {
		t.Errorf("fleet peak RSS %d, want %d", agg.FleetPeakRSSBytes, 800+600)
	}
	if agg.PageCopies != 4 || agg.TLBShootdowns != 7 {
		t.Errorf("meter totals: %+v", agg)
	}
	if agg.RestartNanos != 25 || agg.MaxRestartNanos != 25 {
		t.Errorf("restart totals: %+v", agg)
	}
	if agg.RequestsPerVSec != 5 {
		t.Errorf("fleet rate %v, want 5", agg.RequestsPerVSec)
	}
}

// TestRollingRestartTax pins the scenario's claim: a fork-based
// machine's re-warm tax exceeds a spawn-based machine's, because every
// pool worker duplicates the freshly dirtied heap's page tables —
// visible both in virtual time and in the pool's PTE-copy bill.
func TestRollingRestartTax(t *testing.T) {
	run := func(via sim.Strategy) *MachineMetrics {
		spec := Spec{Machines: 1, Scenario: RollingRestart, Via: via,
			Requests: 4, HeapBytes: 32 << 20}.withDefaults()
		mm, _, err := runMachine(spec, 0, load.NewTemplates())
		if err != nil {
			t.Fatal(err)
		}
		if mm.RestartNanos == 0 {
			t.Fatalf("%v: restart tax is zero", via)
		}
		return mm
	}
	fork, spawn := run(sim.ForkExec), run(sim.Spawn)
	if fork.RestartNanos <= spawn.RestartNanos {
		t.Errorf("fork restart tax (%d ns) should exceed spawn's (%d ns)", fork.RestartNanos, spawn.RestartNanos)
	}
	// The pool's page-table bill: 2*CPUs workers x 32MiB of PTEs
	// under fork, none under spawn.
	if wantPTEs := uint64(2*2) * (32 << 20) / 4096; fork.RestartPTECopies < wantPTEs {
		t.Errorf("fork pool PTE bill %d, want >= %d", fork.RestartPTECopies, wantPTEs)
	}
	if spawn.RestartPTECopies != 0 {
		t.Errorf("spawn pool paid %d PTE copies, want 0", spawn.RestartPTECopies)
	}
}
