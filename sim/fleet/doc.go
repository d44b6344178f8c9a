// Package fleet multiplexes many deterministic simulated machines
// across host cores — the datacenter dimension of "A fork() in the
// road" (HotOS'19).
//
// The paper's §5 costs compound at scale: one machine pays fork's
// page-table tax per creation, a fleet pays it per creation per
// machine, and a deploy wave pays the warm-up tax machine by machine.
// A fleet.Spec describes N machines, each derived deterministically
// from (spec, machine id): shape (CPUs), strategy, workload, and
// scale. Run executes the machines concurrently on a host worker pool
// bounded by GOMAXPROCS and merges results in machine-id order, so the
// aggregate report is byte-identical at any host parallelism — the
// determinism guarantee sim makes for one machine, promoted to the
// fleet:
//
//	res, err := fleet.Run(fleet.Spec{
//		Machines: 8,
//		Scenario: fleet.RollingRestart,
//		Via:      sim.ForkExec,
//	})
//	data, _ := res.JSON() // byte-stable: same Spec, same bytes
//
// Five fleet scenarios express behaviour one machine cannot:
//
//	Uniform        — N identical machines each driving a sim/load
//	                 scenario; the parallel substrate the forkbench
//	                 sweep runs on.
//	RollingRestart — the deploy wave: each machine serves warm, is
//	                 replaced by a fresh instance that repays the
//	                 warm-up tax (dirty heap + pre-created worker
//	                 pool, Θ(heap) per pool worker under fork), then
//	                 serves again. Spawn-based fleets re-warm flat.
//	Heterogeneous  — machine shapes cycle 1/2/4/8 CPUs with traffic
//	                 scaled to the core count; fork's TLB-shootdown
//	                 tax concentrates on the big machines.
//	Surge          — a baseline phase, then a traffic spike that
//	                 multiplies the in-flight window and request
//	                 volume on every machine at once.
//	Chaos          — the fault-injection wave: every machine serves
//	                 prefork traffic under a sim/fault schedule
//	                 derived from (Spec.FaultSeed, machine id) —
//	                 ENOMEM pressure waves that prey on fork's
//	                 Θ(heap) reservations, plus worker kill waves.
//	                 Lost requests land in Aggregate.FailedRequests,
//	                 and because schedules are pure functions of the
//	                 machine's virtual execution the report — losses
//	                 included — keeps the byte-stability guarantee.
//
// RunAll is the lower-level primitive: an order-preserving parallel
// map over arbitrary load.Configs, used by `forkbench load -sweep`
// and the experiment tables so the full strategy x scenario x cpus
// matrix runs concurrently. Host wall-clock, worker/shard counts, and
// peak RSS are reported on Result (HostElapsed, HostWorkers,
// HostShards, HostPeakRSSBytes) but never marshalled: the JSON answers
// "what did the fleet do", the host fields answer "how fast did this
// computer simulate it".
//
// Three host-side mechanisms keep Run host-scalable without touching a
// virtual-time byte (README "Host-scale fleets"):
//
//   - Streaming aggregation: finished machines fold into the Aggregate
//     in machine-id order as they complete and are dropped, so a fleet
//     of any size runs in O(workers) report memory. Spec.KeepPerMachine
//     retains the Result.Machines breakdown. The fleet rate folds
//     through an exact (big.Int-scaled) accumulator, so grouped merges
//     round identically to the serial fold.
//   - Machine reuse: a finished machine's allocations recycle into its
//     template's next stamp (sim.Template.Release); a recycled clone is
//     byte-identical to a fresh one.
//   - Multi-process sharding: Spec.Shards > 1 fans contiguous id ranges
//     across worker OS processes that re-exec this binary — host
//     programs call MaybeShardWorker at the top of main — and partial
//     aggregates merge in shard order, which is id order, so the report
//     is byte-identical to an unsharded run (CI's shard gate cmp's
//     -shards 1 vs 4).
//
// `forkbench hostbench` (experiments.HostBench, E14) measures the
// resulting host-time trajectory — stamp rates, machines per host
// second, peak RSS over a fleet-size ladder — into BENCH_HOST.json.
//
// The forkbench CLI fronts this package (`forkbench fleet`), and
// internal/experiments extends the §5 server-claim table to fleet
// scale with it (experiments.FleetClaim, `forkbench fleetclaim`).
//
// The sim/cluster package builds the autoscaling layer beside it: each
// cluster node is one persistent load.Server, and cluster's reconcile
// loop boots and drains them between pool bounds in virtual time
// (experiments.ScaleOutClaim, `forkbench cluster`), using ForEach and
// PoolSize for its host-parallel steps.
//
// Machines are stamped from frozen templates, not cold-booted: one
// warmed master per distinct (shape, strategy, workload) is frozen
// via sim.System.Snapshot and host-COW-cloned per machine, so fleet
// host cost stops being Θ(heap)×N. A run shares one load.Templates
// cache: serve phases stamp from its scenario templates, and a
// rolling wave's replacement instance is a load.Server stamped from
// its server templates, warm-up cost and page-table bill carried over.
// Spec.ColdBoot passes a nil cache instead, and every machine boots
// from scratch; the report is byte-identical either way, which CI's
// clone-equivalence gate and TestColdBootMatchesStamped enforce (see
// README "Template machines & O(1) clone").
//
// Distributed loads (load.NetLB, load.KVShard) run one sim/net cell
// per fleet machine: the cell is a self-contained deterministic
// simulation, so fleet parallelism and -shards apply to distributed
// workloads unchanged, and the chaos scenario swaps its per-machine
// fault schedule for fault.NetChaos — wire-level drops instead of
// memory pressure (the CI net determinism gate byte-compares the
// result at GOMAXPROCS 1 vs 4 and -shards 1 vs 4).
package fleet
