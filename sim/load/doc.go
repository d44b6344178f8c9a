// Package load is the simulator's workload driver: deterministic,
// closed-loop, high-volume scenarios that exercise sustained process
// creation on a sim.System — the scale dimension of "A fork() in the
// road" (HotOS'19).
//
// The paper's §5 argument is not that one fork is slow, it is that
// fork is the wrong API *at scale*: its cost grows with the parent's
// address space, so a server that creates a process per request gets
// slower as it gets bigger. Figure 1 shows single creations; this
// package drains tens of thousands of them and reports throughput.
//
// Six scenarios, each parameterized by creation strategy (sim.Via),
// CPU count (Config.CPUs), scale, and server heap size:
//
//	Prefork    — a web server creating one worker process per request
//	             (the classic fork-per-connection design), keeping one
//	             request in flight per CPU; throughput collapses under
//	             fork as the server heap grows, and is flat under
//	             spawn or the cross-process builder.
//	Pipeline   — a shell-style farm building echo|cat|…|cat pipelines
//	             and draining them; exercises pipes plus multi-process
//	             creation per unit of work.
//	Checkpoint — a Redis-style snapshot loop: snapshot the server's
//	             heap, keep mutating it while the snapshot is held,
//	             pay the COW-fault tax on every mutated page. The one
//	             workload where fork's COW semantics genuinely help
//	             (§5's "fork remains useful for snapshots").
//	ForkStorm  — bursts of simultaneously live children, stressing the
//	             scheduler's run queues and burst teardown; the burst
//	             size scales with the CPU count.
//	SMPServer  — the Redis/SMP worst case: a real multithreaded server
//	             (one spinning worker thread per CPU, each rewriting
//	             its slice of a dirty heap) takes fork snapshots
//	             mid-traffic. Each snapshot COW-downgrades the page
//	             tables while threads run on other cores — one TLB-
//	             shootdown IPI per remote core, then another round per
//	             post-snapshot COW break — so fork's snapshot tax
//	             grows with the core count, while fork-less snapshots
//	             through the cross-process API stay IPI-free.
//	BuildFarm  — a parallel build keeping 2*CPUs compile jobs in
//	             flight, each with a private working set; measures how
//	             the creation strategy scales job launch with cores.
//
// Every run is a pure function of its Config: the simulator has no
// host-time or randomness inputs, so two runs with the same Config
// produce byte-identical Metrics at every CPU count — asserted by
// this package's determinism regression test. Metrics are
// virtual-time quantities (requests per *virtual* second, from the
// kernel's cost.Meter); host wall-clock speed is a property of the
// simulator, not the result.
//
//	m, err := load.Run(load.Config{
//		Scenario:  load.Prefork,
//		Via:       sim.Spawn,
//		Requests:  10000,
//		HeapBytes: 256 << 20,
//	})
//
// Config.Faults turns a run into a chaos run: a deterministic fault
// schedule from sim/fault is armed after warm-up, per-request
// failures (refused creations, OOM-killed or crash-waved workers) are
// counted in Metrics.FailedRequests instead of aborting, and the run
// stays exactly as reproducible as a clean one — the schedule is a
// pure function of the machine's virtual execution. Prefork is the
// failure-tolerant scenario; experiments.ChaosClaim (E11, `forkbench
// chaos`) and the fleet chaos scenario build on it.
//
// Server is the ready-to-serve machine: booted, heap dirtied, worker
// pool pre-created through the strategy, with the warm-up's virtual
// cost and page-table bill on record. It serves in budgeted batches
// (ServeBatch — sim/cluster's nodes, the net cells' backends) or as one
// measured prefork phase (Run — sim/fleet's rolling-restart
// replacement instance), and Drain closes its leak books.
// Templates.Server stamps one from a frozen warmed server instead of
// booting it, with identical virtual-time behaviour.
//
// The distributed scenarios (NetLB, KVShard) put several Servers on
// sim/net's deterministic message fabric inside one cell: an L7
// balancer fronting a backend pool whose restarted member re-warms
// under the client retry timeout (E15, `forkbench netclaim`), and a
// shard-per-machine KV service with client retries. Their Metrics
// gain packet/byte/drop/timeout/retry counters and a per-flow log —
// all omitempty, so the network plane is free when disabled — which
// `forkbench metrics` renders in Prometheus text format (see README
// "Inter-machine network & metrics").
//
// Migrate is the live-migration cell: two machines on the fabric, a
// worker created per strategy on the source, iterative pre-copy of
// its dirtied pages over the wire (the COW dirty tracking, rearmed
// each round), then a stop-and-copy residue whose cost is the
// downtime — Θ(dirty heap) for the fork family, ~flat for spawn, a
// typed refusal for a mid-vfork borrower (E16, `forkbench migrate`).
// The fleet's Rebalance scenario runs this cell per machine, falling
// back to the rolling-restart tax when the checkpoint refuses.
//
// The forkbench CLI fronts this package (`forkbench load`), and
// internal/experiments uses it to regenerate the §5 server-claim
// table. The sim/fleet package runs many of these machines at once —
// Config.Window is its traffic-surge knob — multiplexed across host
// cores with deterministically merged metrics (`forkbench fleet`,
// and the parallel `forkbench load -sweep` path).
package load
