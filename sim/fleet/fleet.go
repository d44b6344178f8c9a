package fleet

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/sim"
	"repro/sim/fault"
	"repro/sim/load"
)

// Scenario names a fleet-level workload shape — behaviour only a
// population of machines can express. The string form is the CLI name.
type Scenario string

// Fleet scenarios.
const (
	// Uniform runs N identical machines, each driving the configured
	// load scenario — the parallel substrate the sweep runs on.
	Uniform Scenario = "uniform"
	// RollingRestart is the deploy wave: every machine serves warm
	// traffic, is replaced by a freshly booted instance, repays its
	// warm-up tax (dirty the heap, pre-create the worker pool), and
	// serves again. Under fork each pool worker duplicates the
	// server's page tables — Θ(heap) per worker, paid machine by
	// machine across the wave — while spawn-based fleets re-warm at
	// a flat cost.
	RollingRestart Scenario = "rolling"
	// Rebalance is the deploy wave's migration-based alternative:
	// instead of killing each machine and re-paying the full warm-up
	// on its replacement, the machine's resident worker is
	// live-migrated to the fresh instance over the wire (load.Migrate:
	// iterative pre-copy, then stop-and-copy). The machine keeps
	// serving through the pre-copy rounds, so the wave's outage is
	// only the stop-and-copy downtime — Θ(dirty heap) for fork-family
	// strategies, ~flat for spawn and the builder. A worker the
	// checkpoint refuses to serialize (a vfork borrower) cannot be
	// migrated and falls back to the full rolling restart, tax and
	// all.
	Rebalance Scenario = "rebalance"
	// Heterogeneous mixes machine shapes: CPUs cycle 1/2/4/8 across
	// the fleet, with per-machine traffic scaled to the core count.
	Heterogeneous Scenario = "hetero"
	// Surge runs a baseline phase and then a traffic spike that
	// multiplies the request volume on every machine at once — and,
	// for the windowed loads (prefork, buildfarm), the in-flight
	// request window too.
	Surge Scenario = "surge"
	// Chaos is the fault-injection wave: every machine serves
	// prefork traffic while suffering injected ENOMEM pressure waves
	// and worker kill waves mid-traffic, under a fault schedule
	// derived deterministically from (FaultSeed, machine id). Lost
	// requests are counted, not fatal, and the aggregate report —
	// failures included — stays byte-stable at any host parallelism.
	Chaos Scenario = "chaos"
)

// Scenarios lists every fleet scenario, in a fixed order.
func Scenarios() []Scenario {
	return []Scenario{Uniform, RollingRestart, Rebalance, Heterogeneous, Surge, Chaos}
}

// ParseScenario maps a CLI name to its Scenario.
func ParseScenario(name string) (Scenario, error) {
	for _, s := range Scenarios() {
		if name == string(s) {
			return s, nil
		}
	}
	return "", fmt.Errorf("fleet: unknown scenario %q (uniform|rolling|rebalance|hetero|surge|chaos)", name)
}

// heteroLadder is the machine-shape cycle of the Heterogeneous
// scenario: machine i gets heteroLadder[i%4] CPUs.
var heteroLadder = []int{1, 2, 4, 8}

// Spec describes a fleet. The zero value of every field selects a
// sensible default; the fleet a Spec describes is deterministic — the
// same Spec always produces the same Result, regardless of host
// parallelism.
type Spec struct {
	// Machines is the fleet size (default 4).
	Machines int

	// Scenario is the fleet-level shape (default Uniform).
	Scenario Scenario

	// Load is the per-machine workload each serve phase drives
	// (default load.Prefork). RollingRestart always serves
	// prefork-style traffic; Load configures its warm phase.
	Load load.Scenario

	// Via is the process-creation strategy every machine uses.
	Via sim.Strategy

	// CPUs is the per-machine simulated CPU count (default 2).
	// Heterogeneous ignores it and cycles 1/2/4/8.
	CPUs int

	// Requests is the per-machine request count per serve phase
	// (default 24). Heterogeneous scales it by each machine's CPUs;
	// Surge multiplies it by SurgeFactor in the spike phase.
	Requests int

	// HeapBytes is each machine's resident server heap (default
	// 64 MiB) — the quantity fork must duplicate page tables for.
	HeapBytes uint64

	// Workers is the warm worker pool a RollingRestart machine
	// pre-creates after its restart (default 2x the machine's CPUs)
	// — the prefork tax each replacement instance repays before
	// serving.
	Workers int

	// SurgeFactor multiplies the in-flight window and request volume
	// during Surge's spike phase (default 4).
	SurgeFactor int

	// FaultSeed seeds the Chaos scenario's fault schedules (default
	// 1). Each machine's schedule is fault.Chaos(FaultSeed, id): a
	// pure function, so the same seed replays the same waves on
	// every run at any host parallelism.
	FaultSeed uint64

	// Parallelism bounds the host worker pool that multiplexes the
	// fleet's machines across host goroutines (default and ceiling:
	// GOMAXPROCS). It affects host wall-clock time only, never the
	// Result: machines are independent simulations merged in
	// machine-id order.
	Parallelism int

	// Shards fans the fleet's machine-id ranges across that many
	// worker OS processes (os/exec re-invocations of this binary; the
	// host program must call MaybeShardWorker early in main). Each
	// worker streams its contiguous id range and emits a partial
	// aggregate; the parent merges partials in shard order, which is
	// id order, so the Result is byte-identical to an unsharded run.
	// 0 or 1 runs in-process. Host-side only, like Parallelism.
	Shards int

	// KeepPerMachine retains the per-machine metrics breakdown on
	// Result.Machines. Off by default: the streaming aggregation path
	// folds each finished machine into the Aggregate and drops it, so
	// a 100k-machine fleet runs in constant report memory.
	KeepPerMachine bool

	// ColdBoot disables the per-shape template cache: every machine
	// boots and warms from scratch instead of being stamped from a
	// frozen warmed template. Like Parallelism it affects host cost
	// only, never the Result — a stamped machine is logically the
	// warmed machine itself. The CI clone-equivalence gate runs the
	// same Spec both ways and byte-compares the reports.
	ColdBoot bool
}

// withDefaults resolves every zero field.
func (s Spec) withDefaults() Spec {
	if s.Machines == 0 {
		s.Machines = 4
	}
	if s.Scenario == "" {
		s.Scenario = Uniform
	}
	if s.Load == "" {
		s.Load = load.Prefork
	}
	if s.CPUs == 0 {
		s.CPUs = 2
	}
	if s.Requests == 0 {
		s.Requests = 24
	}
	if s.HeapBytes == 0 {
		s.HeapBytes = 64 << 20
	}
	// Workers defaults per machine (2x that machine's CPUs), so the
	// heterogeneous ladder can scale each pool: see Spec.machine.
	if s.SurgeFactor == 0 {
		s.SurgeFactor = 4
	}
	if s.FaultSeed == 0 {
		s.FaultSeed = 1
	}
	return s
}

// SpecError is a typed validation failure: which Spec field is wrong
// and why. Callers that build specs programmatically (sim/cluster, the
// CLI) can branch on Field instead of parsing messages.
type SpecError struct {
	// Spec names the offending spec type ("fleet.Spec"; sim/cluster
	// reuses the type with its own names).
	Spec string
	// Field is the offending field, dotted for nested specs
	// ("Pools[web].MinMachines").
	Field string
	// Reason says what about the value is unacceptable.
	Reason string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("%s: invalid %s: %s", e.Spec, e.Field, e.Reason)
}

// specErr builds a fleet.Spec validation failure.
func specErr(field, format string, args ...any) *SpecError {
	return &SpecError{Spec: "fleet.Spec", Field: field, Reason: fmt.Sprintf(format, args...)}
}

// Validate reports whether the spec, after defaulting, is one Run can
// honour. Every failure is a *SpecError. The zero Spec is valid (all
// defaults).
func (s Spec) Validate() error {
	return s.withDefaults().validate()
}

// validate rejects specs the runner cannot honour. Called after
// withDefaults, so zero fields have already been resolved; what it
// sees wrong, the caller wrote wrong.
func (s Spec) validate() error {
	if s.Machines < 1 || s.Machines > 1<<20 {
		return specErr("Machines", "%d machines (want 1..1048576)", s.Machines)
	}
	if s.Shards < 0 || s.Shards > 256 {
		return specErr("Shards", "%d shards (want 0..256)", s.Shards)
	}
	if s.CPUs < 1 || s.CPUs > 64 {
		return specErr("CPUs", "%d CPUs per machine (want 1..64)", s.CPUs)
	}
	if s.Requests < 1 {
		return specErr("Requests", "%d requests (want >= 1)", s.Requests)
	}
	if s.Workers < 0 {
		return specErr("Workers", "%d pool workers (want >= 0; 0 selects the default)", s.Workers)
	}
	if s.SurgeFactor < 1 {
		return specErr("SurgeFactor", "surge factor %d (want >= 1)", s.SurgeFactor)
	}
	if s.Scenario == RollingRestart && s.Load.Distributed() {
		// The rolling wave restarts a single machine and serves
		// prefork traffic through it; a distributed cell restarts
		// its backend inside the load itself (load.NetLB).
		return specErr("Load", "rolling restart requires a single-machine load (got %s)", s.Load)
	}
	if s.Scenario == Rebalance && (s.Load.Distributed() || s.Load == load.Migrate) {
		// The rebalance wave migrates each machine's resident worker
		// through its own two-machine cell; the serve phases need a
		// single-machine load around it.
		return specErr("Load", "rebalance requires a single-machine load (got %s)", s.Load)
	}
	if s.Scenario == Chaos && s.Load != load.Prefork && !s.Load.Distributed() {
		// Chaos needs a failure-tolerant driver; anything else
		// would silently serve different traffic than the report
		// claims.
		return specErr("Load", "chaos requires a failure-tolerant load: prefork, netlb, or kvshard (got %s)", s.Load)
	}
	if _, err := load.ParseScenario(string(s.Load)); err != nil {
		return specErr("Load", "unknown load scenario %q", s.Load)
	}
	if _, err := ParseScenario(string(s.Scenario)); err != nil {
		return specErr("Scenario", "unknown fleet scenario %q", s.Scenario)
	}
	return nil
}

// machineSpec is the deterministic per-machine derivation of a fleet
// Spec: machine id fixes shape and scale, nothing else does.
type machineSpec struct {
	ID        int
	CPUs      int
	Via       sim.Strategy
	Load      load.Scenario
	Requests  int
	HeapBytes uint64
	Workers   int
}

// machine derives machine id's configuration from the spec.
func (s Spec) machine(id int) machineSpec {
	cpus := s.CPUs
	requests := s.Requests
	if s.Scenario == Heterogeneous {
		cpus = heteroLadder[id%len(heteroLadder)]
		// A bigger machine takes a proportionally bigger share of
		// the fleet's traffic.
		requests = s.Requests * cpus
	}
	workers := s.Workers
	if workers == 0 {
		workers = 2 * cpus
	}
	return machineSpec{
		ID:        id,
		CPUs:      cpus,
		Via:       s.Via,
		Load:      s.Load,
		Requests:  requests,
		HeapBytes: s.HeapBytes,
		Workers:   workers,
	}
}

// loadConfig is the machine's serve-phase workload.
func (ms machineSpec) loadConfig() load.Config {
	return load.Config{
		Scenario:  ms.Load,
		Via:       ms.Via,
		CPUs:      ms.CPUs,
		Requests:  ms.Requests,
		HeapBytes: ms.HeapBytes,
	}
}

// baseWindow is the load scenario's steady-state in-flight window —
// what Surge's spike multiplies. Zero for the loads without a window
// knob (their surge scales volume only).
func (ms machineSpec) baseWindow() int {
	return load.DefaultWindow(ms.Load, ms.CPUs)
}

// MachineMetrics is one machine's deterministic contribution to the
// fleet result: its resolved shape, every measured phase, and — for
// RollingRestart — the virtual time its replacement instance spent
// re-warming before it could serve.
type MachineMetrics struct {
	Machine  int    `json:"machine"`
	CPUs     int    `json:"cpus"`
	Strategy string `json:"strategy"`

	// Phases are the machine's measured serve phases in order:
	// one for Uniform/Heterogeneous, warm+restarted for
	// RollingRestart, baseline+spike for Surge.
	Phases []*load.Metrics `json:"phases"`

	// RestartNanos is the replacement instance's warm-up tax
	// (RollingRestart only): virtual time to dirty the heap and
	// pre-create the worker pool on the freshly booted machine.
	RestartNanos uint64 `json:"restart_ns,omitempty"`

	// RestartPTECopies is the warm-up's page-table bill
	// (RollingRestart only): the PTE copies paid pre-creating the
	// worker pool — Θ(heap) per worker under fork, zero under spawn
	// and the builder. Counted here because the serve phase's meter
	// reset excludes it from Phases.
	RestartPTECopies uint64 `json:"restart_pte_copies,omitempty"`

	// MigrateNanos is the machine's stop-and-copy outage (Rebalance
	// only): the downtime of live-migrating its resident worker to
	// the replacement instance — Θ(dirty heap) under fork-family
	// strategies, ~flat under spawn and the builder. The pre-copy
	// rounds happen while the machine still serves, so they are not
	// outage and are not counted here.
	MigrateNanos uint64 `json:"migrate_ns,omitempty"`

	// MigratePagesSent is the 4 KiB pages the machine's migration
	// shipped over the wire, pre-copy rounds and residue included
	// (Rebalance only).
	MigratePagesSent uint64 `json:"migrate_pages_sent,omitempty"`

	// MigrateRefused is 1 when the machine's resident worker could
	// not be serialized (a vfork borrower) and the machine fell back
	// to a full rolling restart — RestartNanos then carries the
	// re-warm tax it paid instead.
	MigrateRefused uint64 `json:"migrate_refused,omitempty"`

	// RequestsPerVSec is the machine's overall throughput across its
	// phases (restart time included for RollingRestart, migration
	// downtime for Rebalance).
	RequestsPerVSec float64 `json:"requests_per_vsec"`
}

// Aggregate is the fleet-wide rollup, merged in machine-id order so it
// is byte-identical regardless of host parallelism. Rates sum across
// machines (they are concurrent hosts); virtual times report both the
// makespan (slowest machine) and the fleet total (machine-seconds).
type Aggregate struct {
	Machines       int    `json:"machines"`
	TotalRequests  uint64 `json:"total_requests"`
	TotalCreations uint64 `json:"total_creations"`

	// FailedRequests and OOMKills total the fleet's chaos losses:
	// requests lost to injected faults and workers the OOM killer
	// reaped (zero outside the Chaos scenario).
	FailedRequests uint64 `json:"failed_requests,omitempty"`
	OOMKills       uint64 `json:"oom_kills,omitempty"`

	// RequestsPerVSec is fleet throughput: the sum of every
	// machine's requests-per-virtual-second.
	RequestsPerVSec float64 `json:"requests_per_vsec"`

	// MaxVirtualNanos is the makespan — the virtual time of the
	// slowest machine; TotalVirtualNanos is the fleet's summed
	// machine time.
	MaxVirtualNanos   uint64 `json:"max_virtual_ns"`
	TotalVirtualNanos uint64 `json:"total_virtual_ns"`

	// FleetPeakRSSBytes sums each machine's peak resident set — the
	// fleet's worst-case simultaneous memory footprint.
	FleetPeakRSSBytes uint64 `json:"fleet_peak_rss_bytes"`

	// Cost-meter totals across every machine and phase. PageCopies
	// is the fleet COW tax; TLBShootdowns the fleet's remote-CPU
	// IPIs — §5's fork costs at datacenter scale. PTECopies includes
	// the rolling wave's pool-creation bill (RestartPTECopies).
	PageFaults      uint64 `json:"page_faults"`
	PageCopies      uint64 `json:"page_copies"`
	PageZeroes      uint64 `json:"page_zeroes"`
	PTECopies       uint64 `json:"pte_copies"`
	TLBShootdowns   uint64 `json:"tlb_shootdowns"`
	ContextSwitches uint64 `json:"context_switches"`
	Syscalls        uint64 `json:"syscalls"`
	Instructions    uint64 `json:"instructions"`

	// RestartNanos totals the fleet's re-warm tax across the rolling
	// wave; MaxRestartNanos is the worst single machine.
	RestartNanos    uint64 `json:"restart_ns,omitempty"`
	MaxRestartNanos uint64 `json:"max_restart_ns,omitempty"`

	// MigrateDowntimeNanos totals the rebalance wave's stop-and-copy
	// outage; MaxMigrateNanos is the worst single machine,
	// MigratePagesSent the pages the wave shipped, and
	// MigrateRefusals the machines whose resident worker could not be
	// serialized and fell back to a full restart.
	MigrateDowntimeNanos uint64 `json:"migrate_downtime_ns,omitempty"`
	MaxMigrateNanos      uint64 `json:"max_migrate_ns,omitempty"`
	MigratePagesSent     uint64 `json:"migrate_pages_sent,omitempty"`
	MigrateRefusals      uint64 `json:"migrate_refused,omitempty"`
}

// Result is one fleet run. Everything serialized by JSON is a pure
// function of the Spec; the host-side fields (wall clock, worker and
// shard counts, peak RSS) are reported separately and never
// marshalled, so the emitted report is byte-stable across hosts,
// GOMAXPROCS settings, and shard counts.
type Result struct {
	Scenario  string `json:"scenario"`
	Load      string `json:"load"`
	Strategy  string `json:"strategy"`
	HeapBytes uint64 `json:"heap_bytes"`

	// Machines is the per-machine breakdown, populated only when
	// Spec.KeepPerMachine asks for it — the streaming aggregation
	// path otherwise folds each machine into Aggregate and drops it.
	Machines  []MachineMetrics `json:"machines,omitempty"`
	Aggregate Aggregate        `json:"aggregate"`

	// Host-side measurements, deliberately excluded from JSON: the
	// wall-clock the run took, the host goroutines per process, the
	// worker processes, and the host peak RSS (worst process for a
	// sharded run).
	HostElapsed      time.Duration `json:"-"`
	HostWorkers      int           `json:"-"`
	HostShards       int           `json:"-"`
	HostPeakRSSBytes uint64        `json:"-"`
}

// result builds the Result shell every path (in-process or sharded)
// fills in.
func (s Spec) result() *Result {
	return &Result{
		Scenario:  string(s.Scenario),
		Load:      string(s.Load),
		Strategy:  s.Via.String(),
		HeapBytes: s.HeapBytes,
	}
}

// Run executes the fleet: every machine is an independent,
// deterministic sim.System driven to completion on a host worker pool
// bounded by GOMAXPROCS (or Spec.Parallelism if lower) — and, with
// Spec.Shards > 1, fanned across worker OS processes — with results
// merged in machine-id order. Finished machines stream into a
// constant-memory aggregate as they complete; the Result's JSON is
// byte-identical at any host parallelism and shard count.
func Run(spec Spec) (*Result, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if spec.Shards > 1 {
		return runSharded(spec)
	}
	workers := poolSize(spec.Parallelism, spec.Machines)
	start := time.Now()
	m, err := runRange(spec, 0, spec.Machines, workers)
	if err != nil {
		return nil, err
	}
	res := spec.result()
	res.Machines = m.keep
	res.Aggregate = m.agg.aggregate()
	res.HostElapsed = time.Since(start)
	res.HostWorkers = workers
	res.HostShards = 1
	res.HostPeakRSSBytes = HostPeakRSS()
	return res, nil
}

// runRange streams machines [lo, hi) through the worker pool into a
// machine-id-ordered merger — the common core of the in-process run
// and each shard worker.
func runRange(spec Spec, lo, hi, workers int) (*merger, error) {
	var tc *load.Templates // nil: ColdBoot
	if !spec.ColdBoot {
		tc = load.NewTemplates()
	}
	m := newMerger(lo, hi-lo, spec.KeepPerMachine)
	err := forEach(workers, hi-lo, func(i int) error {
		mm, _, err := runMachine(spec, lo+i, tc)
		if err != nil {
			return fmt.Errorf("fleet: machine %d: %w", lo+i, err)
		}
		m.add(lo+i, mm)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// runMachine executes machine id's phases, stamping each phase's
// machine from tc (nil = cold boots). The returned drain books are the
// restarted replacement instance's (nil when the scenario restarted
// nothing), for the leak-invariant tests.
func runMachine(spec Spec, id int, tc *load.Templates) (*MachineMetrics, *load.DrainStats, error) {
	ms := spec.machine(id)
	mm := &MachineMetrics{Machine: ms.ID, CPUs: ms.CPUs, Strategy: ms.Via.String()}
	var drain *load.DrainStats
	switch spec.Scenario {
	case RollingRestart:
		warm, err := tc.Run(ms.loadConfig())
		if err != nil {
			return nil, nil, fmt.Errorf("warm phase: %w", err)
		}
		if drain, err = runRestartedMachine(ms, tc, mm, warm); err != nil {
			return nil, nil, fmt.Errorf("restart phase: %w", err)
		}
	case Rebalance:
		warm, err := tc.Run(ms.loadConfig())
		if err != nil {
			return nil, nil, fmt.Errorf("warm phase: %w", err)
		}
		if drain, err = runRebalancedMachine(ms, tc, mm, warm); err != nil {
			return nil, nil, fmt.Errorf("rebalance phase: %w", err)
		}
	case Chaos:
		// Chaos serves failure-tolerant traffic (validate pinned
		// Spec.Load) under this machine's derived wave schedule. The
		// template is warmed clean; the schedule installs on the
		// stamped clone after warm-up, exactly as the cold path
		// installs it after Prepare. A distributed load's schedule
		// targets the cell's wire (drop waves at the net fault
		// points) instead of the machines' memory paths.
		cfg := ms.loadConfig()
		if ms.Load.Distributed() {
			cfg.Faults = fault.NetChaos(spec.FaultSeed, ms.ID)
		} else {
			cfg.Faults = fault.Chaos(spec.FaultSeed, ms.ID)
		}
		m, err := tc.Run(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("chaos phase: %w", err)
		}
		mm.Phases = []*load.Metrics{m}
	case Surge:
		base, err := tc.Run(ms.loadConfig())
		if err != nil {
			return nil, nil, fmt.Errorf("baseline phase: %w", err)
		}
		spike := ms.loadConfig()
		spike.Requests = ms.Requests * spec.SurgeFactor
		spike.Window = ms.baseWindow() * spec.SurgeFactor
		surge, err := tc.Run(spike)
		if err != nil {
			return nil, nil, fmt.Errorf("surge phase: %w", err)
		}
		mm.Phases = []*load.Metrics{base, surge}
	default: // Uniform, Heterogeneous
		m, err := tc.Run(ms.loadConfig())
		if err != nil {
			return nil, nil, err
		}
		mm.Phases = []*load.Metrics{m}
	}

	var requests, nanos uint64
	for _, p := range mm.Phases {
		requests += p.Requests
		nanos += p.VirtualNanos
	}
	nanos += mm.RestartNanos + mm.MigrateNanos
	if nanos > 0 {
		mm.RequestsPerVSec = float64(requests) * 1e9 / float64(nanos)
	}
	return mm, drain, nil
}

// JSON renders the result as the byte-stable fleet report: same Spec,
// same bytes, at any GOMAXPROCS.
func (r *Result) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Render formats the aggregate and the per-machine breakdown for the
// CLI. Deterministic: host wall-clock is reported separately.
func (r *Result) Render() string {
	var b strings.Builder
	a := r.Aggregate
	fmt.Fprintf(&b, "fleet %s: %d machines via %s (load %s, heap %s)\n",
		r.Scenario, a.Machines, r.Strategy, r.Load, load.HumanBytes(r.HeapBytes))
	row := func(k, v string) { fmt.Fprintf(&b, "  %-18s %s\n", k, v) }
	row("requests", fmt.Sprintf("%d (%.0f/virt-s fleet-wide)", a.TotalRequests, a.RequestsPerVSec))
	if a.FailedRequests > 0 || r.Scenario == string(Chaos) {
		row("failed", fmt.Sprintf("%d (injected faults; %d oom-killed)", a.FailedRequests, a.OOMKills))
	}
	row("creations", fmt.Sprint(a.TotalCreations))
	row("makespan", fmt.Sprintf("%.3fms (fleet total %.3fms)",
		float64(a.MaxVirtualNanos)/1e6, float64(a.TotalVirtualNanos)/1e6))
	row("fleet peak RSS", load.HumanBytes(a.FleetPeakRSSBytes))
	row("page copies", fmt.Sprintf("%d (COW tax)", a.PageCopies))
	row("PTE copies", fmt.Sprint(a.PTECopies))
	row("TLB shootdowns", fmt.Sprintf("%d (SMP fork tax)", a.TLBShootdowns))
	if a.RestartNanos > 0 || r.Scenario == string(RollingRestart) {
		row("restart tax", fmt.Sprintf("%.3fms total, %.3fms worst machine",
			float64(a.RestartNanos)/1e6, float64(a.MaxRestartNanos)/1e6))
	}
	if a.MigrateDowntimeNanos > 0 || r.Scenario == string(Rebalance) {
		row("migration outage", fmt.Sprintf("%.3fms total, %.3fms worst machine",
			float64(a.MigrateDowntimeNanos)/1e6, float64(a.MaxMigrateNanos)/1e6))
		row("pages shipped", fmt.Sprintf("%d (%d machines fell back to restart)",
			a.MigratePagesSent, a.MigrateRefusals))
	}
	if len(r.Machines) == 0 {
		fmt.Fprintf(&b, "  machine breakdown: omitted (Spec.KeepPerMachine / forkbench fleet -permachine)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  machine breakdown:\n")
	fmt.Fprintf(&b, "    %-4s %-5s %-10s %-12s %-10s %-10s %-8s\n",
		"id", "cpus", "req/virt-s", "virtual", "peak RSS", "COW", "IPIs")
	for _, mm := range r.Machines {
		var nanos, peak, cow, ipis uint64
		for _, p := range mm.Phases {
			nanos += p.VirtualNanos
			if p.PeakRSSBytes > peak {
				peak = p.PeakRSSBytes
			}
			cow += p.PageCopies
			ipis += p.TLBShootdowns
		}
		nanos += mm.RestartNanos
		fmt.Fprintf(&b, "    %-4d %-5d %-10.0f %-12s %-10s %-10d %-8d\n",
			mm.Machine, mm.CPUs, mm.RequestsPerVSec,
			fmt.Sprintf("%.3fms", float64(nanos)/1e6),
			load.HumanBytes(peak), cow, ipis)
	}
	return b.String()
}

// RunAll runs every config on a host worker pool bounded by GOMAXPROCS
// (or parallelism if lower), returning metrics in input order — the
// primitive `forkbench load -sweep` and the experiment tables fan out
// on. Each config is an independent machine, warmed once per distinct
// machine shape and stamped per run (see load.Templates); results are
// position-merged, so the output is identical to running the configs
// serially through load.Run.
func RunAll(parallelism int, cfgs []load.Config) ([]*load.Metrics, error) {
	tc := load.NewTemplates()
	ms := make([]*load.Metrics, len(cfgs))
	err := forEach(poolSize(parallelism, len(cfgs)), len(cfgs), func(i int) error {
		m, err := tc.Run(cfgs[i])
		if err != nil {
			return err
		}
		ms[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ms, nil
}

// PoolSize reports the host worker count a fleet of n machines would
// use at the given requested parallelism: min(GOMAXPROCS, requested,
// n), and at least 1.
func PoolSize(parallelism, n int) int { return poolSize(parallelism, n) }

func poolSize(parallelism, n int) int {
	workers := runtime.GOMAXPROCS(0)
	if parallelism > 0 && parallelism < workers {
		workers = parallelism
	}
	if n > 0 && workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForEach runs f(0..n-1) on a pool of host goroutines — the fleet's
// deterministic parallel-for, exported for sim/cluster's reconcile
// loop (each step serves every live machine host-parallel, then merges
// in machine-id order). Indices are claimed in increasing order; after
// a failure no new indices start and the lowest failing index's error
// is returned, so the outcome is identical at any worker count.
func ForEach(workers, n int, f func(i int) error) error {
	return forEach(workers, n, f)
}

// forEach runs f(0..n-1) on a pool of host goroutines. Once any index
// fails, no *new* indices are claimed (in-flight ones finish), and the
// error for the lowest index wins. That stays deterministic at every
// worker count: indices are claimed in increasing order, so every
// index below the first failure has already been claimed and run, and
// the lowest failing index is therefore always observed.
func forEach(workers, n int, f func(i int) error) error {
	if n == 0 {
		return nil
	}
	errs := make([]error, n)
	next := int64(-1)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				if errs[i] = f(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
