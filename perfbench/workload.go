package main

import (
	"fmt"
	"time"

	"repro/sim"
	"repro/sim/cluster"
	"repro/sim/fleet"
	"repro/sim/load"
)

const mib = uint64(1) << 20

// variants is how many distinct inputs a workload has: the default
// (variant 1, which seed 1 picks) and one held out (variant 0). --seed
// picks variant seed mod variants, so odd seeds run the default input
// and even seeds the held-out one, and refs/ holds one virtual report
// per variant.
const variants = 2

// surgeRepeats is how many cluster.Run calls make one surge batch:
// one run takes about 0.2 s of host time, too little to time alone.
const surgeRepeats = 8

// workload is one named closed-loop batch of simulated work. Every
// fleet spec sets Scenario explicitly: fleet.Spec defaults to Uniform
// while `forkbench fleet` defaults to -scenario rolling, and the two
// differ about threefold in host time per 64 MiB fork machine.
type workload struct {
	name string
	// fleet or surge builds the batch for one seed variant.
	fleet func(v, workers int) fleet.Spec
	surge func(v, workers int) cluster.Spec
	// vacuous reports why a batch's counters show that the batch did
	// not exercise what the workload exists for, or "" if they do.
	vacuous func(c counts) string
}

var workloads = []workload{
	{
		name: "fork64",
		fleet: func(v, workers int) fleet.Spec {
			return fleet.Spec{
				Machines: 384 + 8*v, Scenario: fleet.Uniform, Load: load.Prefork,
				Via: sim.ForkExec, CPUs: 2, Requests: 24, HeapBytes: 64 * mib,
				Parallelism: workers,
			}
		},
		vacuous: func(c counts) string {
			switch {
			case c.PTECopies == 0:
				return "no PTE copies: fork copied no page tables"
			case c.PageCopies != 0:
				return fmt.Sprintf("%d page copies: fork64 must make no COW writes", c.PageCopies)
			}
			return ""
		},
	},
	{
		name: "spawn4",
		fleet: func(v, workers int) fleet.Spec {
			return fleet.Spec{
				Machines: 12288 + 128*v, Scenario: fleet.Uniform, Load: load.Prefork,
				Via: sim.Spawn, CPUs: 1, Requests: 8, HeapBytes: 4 * mib,
				Parallelism: workers,
			}
		},
		vacuous: func(c counts) string {
			if c.PTECopies != 0 {
				return fmt.Sprintf("%d PTE copies: spawn must copy no page tables", c.PTECopies)
			}
			return ""
		},
	},
	{
		name: "cowmigrate",
		fleet: func(v, workers int) fleet.Spec {
			return fleet.Spec{
				Machines: 80 + 2*v, Scenario: fleet.Rebalance, Load: load.Checkpoint,
				Via: sim.ForkExec, CPUs: 2, Requests: 24, HeapBytes: 64 * mib,
				Parallelism: workers,
			}
		},
		vacuous: func(c counts) string {
			switch {
			case c.PageCopies == 0:
				return "no page copies: the snapshots broke no COW pages"
			case c.MigratePagesSent == 0:
				return "no pages sent: nothing was migrated"
			}
			return ""
		},
	},
	{
		name: "surge",
		surge: func(v, workers int) cluster.Spec {
			spec := cluster.SurgeSpec(64 * mib)
			spec.Seed = uint64(1 + v)
			spec.Traffic[0].Steps += v
			spec.Parallelism = workers
			return spec
		},
		vacuous: func(c counts) string {
			for pool, n := range c.ScaleOutsByPool {
				if n == 0 {
					return fmt.Sprintf("pool %s never scaled out", pool)
				}
			}
			return ""
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// variant maps any seed onto one of the workload's stored inputs.
func variant(seed int64) int {
	return int((seed%variants + variants) % variants)
}

// counts are a batch's exact virtual counters: a host-only change to
// the simulator must leave every one of them unchanged.
type counts struct {
	Requests, Failed uint64
	Creations        uint64
	PageFaults       uint64
	PageCopies       uint64
	PTECopies        uint64
	Syscalls         uint64
	ContextSwitches  uint64
	Machines         uint64
	MigratePagesSent uint64
	ScaleOuts        uint64
	ScaleOutsByPool  map[string]uint64
}

// outcome is one batch: its virtual report (the exact-output gate
// compares it byte for byte) and the host time the call took.
type outcome struct {
	report []byte
	counts counts
	host   time.Duration
}

// runBatch runs one batch of the workload's variant-v input on the
// public entry point a user would call: fleet.Run or cluster.Run.
func (w *workload) runBatch(v, workers int) (*outcome, error) {
	if w.fleet != nil {
		res, err := fleet.Run(w.fleet(v, workers))
		if err != nil {
			return nil, err
		}
		rep, err := res.JSON()
		if err != nil {
			return nil, err
		}
		return &outcome{report: rep, counts: fleetCounts(&res.Aggregate), host: res.HostElapsed}, nil
	}
	spec := w.surge(v, workers)
	o := &outcome{counts: counts{ScaleOutsByPool: map[string]uint64{}}}
	start := time.Now()
	for i := 0; i < surgeRepeats; i++ {
		rep, err := cluster.Run(spec)
		if err != nil {
			return nil, err
		}
		js, err := rep.JSON()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			o.report = js
			addClusterCounts(&o.counts, rep)
		} else if string(js) != string(o.report) {
			return nil, fmt.Errorf("cluster run %d of one batch differs from run 0", i)
		}
	}
	o.host = time.Since(start)
	// The batch repeats one deterministic run; scale its totals.
	o.counts.Requests *= surgeRepeats
	o.counts.Failed *= surgeRepeats
	o.counts.Creations *= surgeRepeats
	o.counts.PTECopies *= surgeRepeats
	o.counts.ScaleOuts *= surgeRepeats
	return o, nil
}

func fleetCounts(a *fleet.Aggregate) counts {
	return counts{
		Requests:         a.TotalRequests,
		Failed:           a.FailedRequests,
		Creations:        a.TotalCreations,
		PageFaults:       a.PageFaults,
		PageCopies:       a.PageCopies,
		PTECopies:        a.PTECopies,
		Syscalls:         a.Syscalls,
		ContextSwitches:  a.ContextSwitches,
		Machines:         uint64(a.Machines),
		MigratePagesSent: a.MigratePagesSent,
	}
}

// addClusterCounts adds one cluster run's counters. The cluster report
// carries no kernel, fault or syscall counters. Its PTE copies are the
// pools' warm-up copies only, and its creations follow from the report:
// one worker per served request plus each booted machine's warm pool.
func addClusterCounts(c *counts, rep *cluster.Report) {
	for _, p := range rep.Pools {
		c.Requests += p.Served
		c.Failed += p.Failed
		c.Creations += p.Served + uint64(p.MachinesBooted*p.Workers)
		c.PTECopies += p.WarmupPTECopies
		c.ScaleOuts += uint64(len(p.ScaleOuts))
		c.ScaleOutsByPool[p.Pool] += uint64(len(p.ScaleOuts))
	}
}

// setupShapes are the machine shapes a workload's batch warms: one
// scenario template per fleet, one server template per cluster pool.
func (w *workload) setupShapes(v, workers int) []load.Config {
	if w.fleet != nil {
		s := w.fleet(v, workers)
		return []load.Config{{Scenario: s.Load, Via: s.Via, CPUs: s.CPUs, HeapBytes: s.HeapBytes}}
	}
	spec := w.surge(v, workers)
	var cfgs []load.Config
	for _, p := range spec.Pools {
		cfgs = append(cfgs, load.Config{
			Scenario: load.Prefork, Via: p.Via, CPUs: p.CPUs, HeapBytes: p.HeapBytes,
			Workers: p.Workers, RequestWorkMiB: spec.RequestWorkMiB,
		})
	}
	return cfgs
}

// setupOnce boots, warms and snapshots one machine of each shape the
// workload uses, through the same constructors fleet.Run and
// cluster.Run call.
func (w *workload) setupOnce(v, workers int) (time.Duration, error) {
	start := time.Now()
	for _, cfg := range w.setupShapes(v, workers) {
		var err error
		if w.fleet != nil {
			_, err = load.NewTemplate(cfg)
		} else {
			_, err = load.NewServerTemplate(cfg)
		}
		if err != nil {
			return 0, fmt.Errorf("setup %s: %w", w.name, err)
		}
	}
	return time.Since(start), nil
}
