package main

import (
	"encoding/json"
	"fmt"
	"math/big"

	"repro/sim/cluster"
	"repro/sim/fleet"
	"repro/sim/load"
)

// replayTotals are the virtual counters only the replay sees: the
// fleet report keeps no per-migration packet or round counts.
type replayTotals struct {
	netPackets    uint64
	migrateRounds uint64
}

// replay re-runs the workload's batch with spans around every layer
// call, through the same public steps fleet.Run and cluster.Run take,
// and fails unless its virtual totals equal the stored reference's.
func replay(tr *tracer, w *workload, v, workers int, ref []byte) (replayTotals, error) {
	if w.fleet == nil {
		return replayTotals{}, replaySurge(tr, w.surge(v, workers), ref)
	}
	return replayFleet(tr, w.fleet(v, workers), workers, ref)
}

// replaySurge repeats cluster.Run as the timed batch does, one span per
// run, and checks every run's report.
func replaySurge(tr *tracer, spec cluster.Spec, ref []byte) error {
	for i := 0; i < surgeRepeats; i++ {
		id := tr.begin("cluster.run", 0)
		rep, err := cluster.Run(spec)
		tr.end(id)
		if err != nil {
			return err
		}
		js, err := rep.JSON()
		if err != nil {
			return err
		}
		if string(js) != string(ref) {
			return fmt.Errorf("replayed cluster run %d differs from the stored reference report", i)
		}
	}
	return nil
}

// replayFleet runs each machine of a Uniform or Rebalance fleet on
// fleet.ForEach: stamp and run the serve phase and, for Rebalance,
// migrate the machine's worker and serve again. The machines are
// folded as fleet.Run folds them and the aggregate must equal the
// stored reference's.
func replayFleet(tr *tracer, spec fleet.Spec, workers int, ref []byte) (replayTotals, error) {
	var tot replayTotals
	cfg := load.Config{Scenario: spec.Load, Via: spec.Via, CPUs: spec.CPUs, Requests: spec.Requests, HeapBytes: spec.HeapBytes}
	tpl, err := load.NewTemplate(cfg)
	if err != nil {
		return tot, err
	}
	machines := make([]fleet.MachineMetrics, spec.Machines)
	extra := make([]replayTotals, spec.Machines)
	err = fleet.ForEach(workers, spec.Machines, func(i int) error {
		m := tr.begin("machine", 0)
		defer tr.end(m)
		phase := func() (*load.Metrics, error) {
			s := tr.begin("sim.stamp", m)
			p, err := tpl.Stamp(cfg)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			r := tr.begin("load.run", m)
			defer tr.end(r)
			return p.Run()
		}
		mm := fleet.MachineMetrics{Machine: i, CPUs: spec.CPUs, Strategy: spec.Via.String()}
		first, err := phase()
		if err != nil {
			return fmt.Errorf("machine %d: %w", i, err)
		}
		mm.Phases = []*load.Metrics{first}
		if spec.Scenario == fleet.Rebalance {
			mcfg := cfg
			mcfg.Scenario = load.Migrate
			mcfg.Requests = 1
			g := tr.begin("load.migrate", m)
			mig, err := load.Run(mcfg)
			tr.end(g)
			if err != nil {
				return fmt.Errorf("machine %d migrate: %w", i, err)
			}
			if mig.MigrateRefused > 0 {
				return fmt.Errorf("machine %d: checkpoint refused the migrant", i)
			}
			mm.MigrateNanos = mig.MigrateDowntimeNanos
			mm.MigratePagesSent = mig.MigratePagesSent
			extra[i] = replayTotals{netPackets: mig.NetPacketsSent, migrateRounds: mig.MigrateRounds}
			second, err := phase()
			if err != nil {
				return fmt.Errorf("machine %d: %w", i, err)
			}
			mm.Phases = append(mm.Phases, second)
		}
		machines[i] = mm
		return nil
	})
	if err != nil {
		return tot, err
	}
	for _, e := range extra {
		tot.netPackets += e.netPackets
		tot.migrateRounds += e.migrateRounds
	}

	var stored fleet.Result
	if err := json.Unmarshal(ref, &stored); err != nil {
		return tot, err
	}
	got, err := json.Marshal(fold(machines))
	if err != nil {
		return tot, err
	}
	want, err := json.Marshal(stored.Aggregate)
	if err != nil {
		return tot, err
	}
	if string(got) != string(want) {
		return tot, fmt.Errorf("replay aggregate differs from the stored reference report:\n got %s\nwant %s", got, want)
	}
	return tot, nil
}

// fold sums machines into a fleet.Aggregate the way fleet.Run does:
// integer counters add or take the max, and the per-machine rates are
// summed exactly and rounded once.
func fold(machines []fleet.MachineMetrics) fleet.Aggregate {
	var a fleet.Aggregate
	rate := new(big.Float).SetPrec(4096)
	for i := range machines {
		mm := &machines[i]
		a.Machines++
		var nanos, peak, requests uint64
		for _, p := range mm.Phases {
			a.TotalRequests += p.Requests
			a.TotalCreations += p.Creations
			a.FailedRequests += p.FailedRequests
			a.OOMKills += p.OOMKills
			requests += p.Requests
			nanos += p.VirtualNanos
			peak = max(peak, p.PeakRSSBytes)
			a.PageFaults += p.PageFaults
			a.PageCopies += p.PageCopies
			a.PageZeroes += p.PageZeroes
			a.PTECopies += p.PTECopies
			a.TLBShootdowns += p.TLBShootdowns
			a.ContextSwitches += p.ContextSwitches
			a.Syscalls += p.Syscalls
			a.Instructions += p.Instructions
		}
		nanos += mm.MigrateNanos
		a.TotalVirtualNanos += nanos
		a.MaxVirtualNanos = max(a.MaxVirtualNanos, nanos)
		a.FleetPeakRSSBytes += peak
		if nanos > 0 {
			rate.Add(rate, big.NewFloat(float64(requests)*1e9/float64(nanos)))
		}
		a.MigrateDowntimeNanos += mm.MigrateNanos
		a.MaxMigrateNanos = max(a.MaxMigrateNanos, mm.MigrateNanos)
		a.MigratePagesSent += mm.MigratePagesSent
	}
	a.RequestsPerVSec, _ = rate.Float64()
	return a
}
