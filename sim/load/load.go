package load

import (
	"fmt"
	"strings"

	"repro/internal/addrspace"
	"repro/internal/cost"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/sim"
	"repro/sim/fault"
)

// Scenario names a workload shape. The string form is the CLI name.
type Scenario string

// Scenarios.
const (
	Prefork    Scenario = "prefork"
	Pipeline   Scenario = "pipeline"
	Checkpoint Scenario = "checkpoint"
	ForkStorm  Scenario = "forkstorm"
	SMPServer  Scenario = "smpserver"
	BuildFarm  Scenario = "buildfarm"

	// Distributed scenarios: multi-machine cells over the sim/net
	// fabric (see net.go). NetLB is a load balancer fronting a pool
	// of fork-/spawn-backed servers; KVShard is a shard-per-machine
	// KV service with client retries.
	NetLB   Scenario = "netlb"
	KVShard Scenario = "kvshard"

	// Migrate live-migrates a resident process between two machines
	// over the fabric: iterative pre-copy on the COW dirty tracking,
	// then stop-and-copy of the residue (see migrate.go). Requests is
	// migrations performed, Workers the pre-copy rounds per migration.
	Migrate Scenario = "migrate"
)

// Scenarios lists every workload, in a fixed order.
func Scenarios() []Scenario {
	return []Scenario{Prefork, Pipeline, Checkpoint, ForkStorm, SMPServer, BuildFarm, NetLB, KVShard, Migrate}
}

// ParseScenario maps a CLI name to its Scenario.
func ParseScenario(name string) (Scenario, error) {
	for _, s := range Scenarios() {
		if name == string(s) {
			return s, nil
		}
	}
	return "", fmt.Errorf("load: unknown scenario %q (prefork|pipeline|checkpoint|forkstorm|smpserver|buildfarm|netlb|kvshard|migrate)", name)
}

// Config parameterizes one run. The zero value of every field selects
// a sensible default; Scenario defaults to Prefork and Via to
// sim.Spawn (sim's own default).
type Config struct {
	// Scenario selects the workload shape.
	Scenario Scenario

	// Via is the process-creation strategy every child in the
	// scenario is created through.
	Via sim.Strategy

	// CPUs is the simulated CPU count (default 1). Scenarios scale
	// with it: Prefork keeps CPUs requests in flight, ForkStorm's
	// default burst and Pipeline's default volume grow with it, the
	// SMPServer runs one worker thread per CPU, and BuildFarm keeps
	// 2*CPUs jobs in flight.
	CPUs int

	// Requests is the closed-loop unit count: requests drained
	// (Prefork), pipelines built (Pipeline), snapshot cycles
	// (Checkpoint), or waves (ForkStorm).
	Requests int

	// Workers is the pipeline depth (Pipeline, default 3), the
	// burst size of simultaneously live children (ForkStorm,
	// default 64), or a Server's pre-created worker pool (default
	// 4×CPUs).
	Workers int

	// Window overrides the closed loop's in-flight request window:
	// how many requests Prefork (default CPUs) or BuildFarm jobs
	// (default 2*CPUs) are live at once. sim/fleet's traffic-surge
	// scenario widens it to model load spikes beyond the machine's
	// steady state.
	Window int

	// HeapBytes is the server's dirty anonymous heap — the paper's
	// "parent of size X" under sustained load (default 64 MiB).
	HeapBytes uint64

	// MutateBytes is how much of the heap the Checkpoint server
	// rewrites between snapshots, each page paying a COW break
	// while the snapshot holds the old view (default HeapBytes/8).
	MutateBytes uint64

	// RAMBytes sizes the machine (default 4×HeapBytes, minimum
	// 1 GiB).
	RAMBytes uint64

	// HugePages backs the heap with 2 MiB mappings.
	HugePages bool

	// Nodes is the distributed scenarios' machine count: backends
	// behind the NetLB balancer (default 2) or KVShard shards
	// (default 3). The single-machine scenarios ignore it.
	Nodes int

	// RequestWorkMiB gives every request served by a Server a private
	// working set: the worker allocates and write-touches this many
	// MiB (the hog program) before exiting, so a request costs CPU
	// and memory beyond its creation. Used by Server.ServeBatch
	// (sim/cluster's per-request body); the scenario drivers, and so
	// Server.Run, ignore it. 0 = no per-request working set.
	RequestWorkMiB int

	// Faults, when non-nil, runs the measured loop in chaos mode:
	// the schedule is installed after warm-up (so setup stays
	// clean), per-request failures are tolerated and counted in
	// Metrics.FailedRequests instead of aborting the run, and the
	// driver consults fault.PointKill once per request so kill-wave
	// schedules can crash in-flight workers. Only the failure-
	// tolerant scenarios (currently Prefork) accept it. Schedules
	// are pure functions, so a chaos run is exactly as deterministic
	// as a clean one.
	Faults fault.Schedule
}

// withDefaults returns cfg with every zero field resolved.
func (cfg Config) withDefaults() Config {
	if cfg.Scenario == "" {
		cfg.Scenario = Prefork
	}
	if cfg.CPUs == 0 {
		cfg.CPUs = 1
	}
	if cfg.Requests == 0 {
		switch cfg.Scenario {
		case Pipeline:
			cfg.Requests = 64 * cfg.CPUs
		case Checkpoint:
			cfg.Requests = 32
		case ForkStorm:
			cfg.Requests = 4
		case SMPServer:
			cfg.Requests = 8
		case BuildFarm:
			cfg.Requests = 24 * cfg.CPUs
		case NetLB, KVShard:
			cfg.Requests = 64
		case Migrate:
			cfg.Requests = 4
		default:
			cfg.Requests = 256
		}
	}
	if cfg.Nodes == 0 {
		switch cfg.Scenario {
		case NetLB:
			cfg.Nodes = 2
		case KVShard:
			cfg.Nodes = 3
		case Migrate:
			cfg.Nodes = 2 // source and destination
		}
	}
	if cfg.Workers == 0 {
		if cfg.Scenario == ForkStorm {
			cfg.Workers = 64 * cfg.CPUs
		} else {
			cfg.Workers = 3
		}
	}
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = 64 << 20
	}
	if cfg.MutateBytes == 0 {
		cfg.MutateBytes = cfg.HeapBytes / 8
	}
	// Round up to whole pages: an explicit sub-page mutation must not
	// silently become "mutate nothing".
	cfg.MutateBytes = (cfg.MutateBytes + uint64(mem.PageSize) - 1) &^ (uint64(mem.PageSize) - 1)
	if cfg.RAMBytes == 0 {
		cfg.RAMBytes = 4 * cfg.HeapBytes
		if cfg.RAMBytes < 1<<30 {
			cfg.RAMBytes = 1 << 30
		}
	}
	return cfg
}

// Metrics is the deterministic result of one run. All quantities are
// virtual-time: two runs with the same Config produce identical
// Metrics, bit for bit.
type Metrics struct {
	Scenario  string `json:"scenario"`
	Strategy  string `json:"strategy"`
	HeapBytes uint64 `json:"heap_bytes"`
	RAMBytes  uint64 `json:"ram_bytes"`
	NumCPUs   int    `json:"num_cpus"`

	// Requests is completed units of user-visible work; Creations
	// is processes created (a pipeline request creates several).
	Requests  uint64 `json:"requests"`
	Creations uint64 `json:"creations"`

	// FailedRequests counts requests lost to injected faults (chaos
	// mode only — a clean run aborts on the first failure instead).
	// OOMKills counts workers the OOM killer reaped during the loop.
	FailedRequests uint64 `json:"failed_requests,omitempty"`
	OOMKills       uint64 `json:"oom_kills,omitempty"`

	// VirtualNanos is the virtual time the loop took; the *PerVSec
	// rates are per virtual second — the paper's throughput axis.
	VirtualNanos     uint64  `json:"virtual_ns"`
	RequestsPerVSec  float64 `json:"requests_per_vsec"`
	CreationsPerVSec float64 `json:"creations_per_vsec"`

	// PeakRSSBytes is the high-water mark of allocated physical
	// memory during the loop (huge frames counted at full size).
	PeakRSSBytes uint64 `json:"peak_rss_bytes"`

	// Cost-meter event counters for the loop: PageCopies is the
	// COW-fault tax (plus eager-fork copies where selected), and
	// TLBShootdowns the remote-CPU IPIs — the SMP fork tax, always 0
	// on one CPU.
	PageFaults      uint64 `json:"page_faults"`
	PageCopies      uint64 `json:"page_copies"`
	PageZeroes      uint64 `json:"page_zeroes"`
	PTECopies       uint64 `json:"pte_copies"`
	TLBShootdowns   uint64 `json:"tlb_shootdowns"`
	ContextSwitches uint64 `json:"context_switches"`
	Syscalls        uint64 `json:"syscalls"`
	Instructions    uint64 `json:"instructions"`

	// CPUUtilization is, per CPU, the busy fraction of the virtual
	// time that CPU advanced during the loop (index = CPU id;
	// always in [0, 1]).
	CPUUtilization []float64 `json:"cpu_utilization"`

	// ServerCPUNanos is the virtual CPU time the resident server's
	// threads executed during the loop, summed across CPUs — the
	// service capacity left over after creation/snapshot taxes (set
	// by the SMPServer scenario; 0 elsewhere).
	ServerCPUNanos uint64 `json:"server_cpu_ns,omitempty"`

	// Wire counters, set by the distributed scenarios (netlb,
	// kvshard) and zero — and absent from the JSON — everywhere
	// else, so single-machine reports are byte-identical to runs of
	// a binary without networking. Packets/bytes are fabric totals
	// across every node; NetDrops counts frames the fault schedule
	// ate (send-side plus delivery-side); NetTimeouts is client
	// attempts that outlived their deadline and NetRetries the ones
	// re-sent (a timeout past the attempt budget fails the request
	// into FailedRequests instead).
	NetPacketsSent uint64 `json:"net_packets_sent,omitempty"`
	NetPacketsRecv uint64 `json:"net_packets_recv,omitempty"`
	NetBytesSent   uint64 `json:"net_bytes_sent,omitempty"`
	NetBytesRecv   uint64 `json:"net_bytes_recv,omitempty"`
	NetDrops       uint64 `json:"net_drops,omitempty"`
	NetTimeouts    uint64 `json:"net_timeouts,omitempty"`
	NetRetries     uint64 `json:"net_retries,omitempty"`

	// Live-migration counters, set only by the Migrate scenario (and
	// omitted from the JSON elsewhere). MigrateRounds is pre-copy
	// rounds shipped across all migrations (round 0 included),
	// MigratePagesSent the 4 KiB pages that crossed the wire,
	// MigrateDowntimeNanos the summed stop-and-copy outage — the
	// experiment's y-axis: Θ(dirty heap) for fork-family migrants,
	// ~flat for spawned ones — and MigrateRefused the migrants the
	// checkpoint refused to serialize (vfork borrowers).
	MigrateRounds        uint64 `json:"migrate_rounds,omitempty"`
	MigratePagesSent     uint64 `json:"migrate_pages_sent,omitempty"`
	MigrateDowntimeNanos uint64 `json:"migrate_downtime_ns,omitempty"`
	MigrateRefused       uint64 `json:"migrate_refused,omitempty"`

	// NetFlows is the fabric's flow log — per directed (src, dst,
	// label) flow — in (src, dst, label) order. The metrics plane
	// (`forkbench metrics`) renders each as a labelled counter.
	NetFlows []NetFlow `json:"net_flows,omitempty"`
}

// NetFlow is one directed flow's cumulative counters. Addresses are
// cell-local: 0 the client, then the balancer and backends (NetLB) or
// the shards (KVShard).
type NetFlow struct {
	Src     int    `json:"src"`
	Dst     int    `json:"dst"`
	Flow    string `json:"flow"`
	Packets uint64 `json:"packets"`
	Bytes   uint64 `json:"bytes"`
	Drops   uint64 `json:"drops,omitempty"`
}

// Render formats the metrics as an aligned block for the CLI.
func (m *Metrics) Render() string {
	var b strings.Builder
	row := func(k, v string) { fmt.Fprintf(&b, "  %-18s %s\n", k, v) }
	fmt.Fprintf(&b, "load %s via %s (heap %s, RAM %s, %d CPU(s))\n",
		m.Scenario, m.Strategy, HumanBytes(m.HeapBytes), HumanBytes(m.RAMBytes), m.NumCPUs)
	row("requests", fmt.Sprintf("%d (%.0f/virt-s)", m.Requests, m.RequestsPerVSec))
	if m.FailedRequests > 0 || m.OOMKills > 0 {
		row("failed", fmt.Sprintf("%d (injected faults; %d oom-killed)", m.FailedRequests, m.OOMKills))
	}
	row("creations", fmt.Sprintf("%d (%.0f/virt-s)", m.Creations, m.CreationsPerVSec))
	row("virtual time", fmt.Sprintf("%.3fms", float64(m.VirtualNanos)/1e6))
	row("peak RSS", HumanBytes(m.PeakRSSBytes))
	row("page faults", fmt.Sprint(m.PageFaults))
	row("page copies", fmt.Sprintf("%d (COW tax)", m.PageCopies))
	row("PTE copies", fmt.Sprint(m.PTECopies))
	row("TLB shootdowns", fmt.Sprintf("%d (SMP fork tax)", m.TLBShootdowns))
	row("ctx switches", fmt.Sprint(m.ContextSwitches))
	row("syscalls", fmt.Sprint(m.Syscalls))
	row("instructions", fmt.Sprint(m.Instructions))
	if m.MigrateRounds > 0 || m.MigrateRefused > 0 {
		row("migrations", fmt.Sprintf("%d (%d refused)", m.Requests, m.MigrateRefused))
		row("precopy rounds", fmt.Sprint(m.MigrateRounds))
		row("pages shipped", fmt.Sprintf("%d (%s)", m.MigratePagesSent,
			HumanBytes(m.MigratePagesSent*uint64(mem.PageSize))))
		row("downtime", fmt.Sprintf("%.3fms (stop-and-copy, summed)",
			float64(m.MigrateDowntimeNanos)/1e6))
	}
	if m.NetPacketsSent > 0 {
		row("net packets", fmt.Sprintf("%d sent / %d recv (%d dropped)",
			m.NetPacketsSent, m.NetPacketsRecv, m.NetDrops))
		row("net bytes", fmt.Sprintf("%s sent / %s recv",
			HumanBytes(m.NetBytesSent), HumanBytes(m.NetBytesRecv)))
		row("net timeouts", fmt.Sprintf("%d (%d retried)", m.NetTimeouts, m.NetRetries))
	}
	if len(m.CPUUtilization) > 0 {
		var u []string
		for _, f := range m.CPUUtilization {
			u = append(u, fmt.Sprintf("%.0f%%", 100*f))
		}
		row("cpu util", strings.Join(u, " "))
	}
	if m.ServerCPUNanos > 0 {
		row("server cpu", fmt.Sprintf("%.3fms", float64(m.ServerCPUNanos)/1e6))
	}
	return b.String()
}

// HumanBytes renders an exact power-of-two byte count with its
// largest unit (1GiB, 64MiB, 4KiB); other values render as raw bytes.
// Shared by the load and fleet CLI renderers.
func HumanBytes(n uint64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dGiB", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}

// driver carries one run's state: the booted machine, the server heap
// VMA, and the counters accumulated by the scenario loop.
type driver struct {
	cfg       Config
	sys       *sim.System
	k         *kernel.Kernel
	heapStart uint64

	requests  uint64
	creations uint64
	failed    uint64
	peakPages uint64

	// serverCPU is the virtual CPU time the SMPServer scenario's
	// server process executed during the loop.
	serverCPU uint64
}

// sample records the physical-memory high-water mark; scenarios call
// it at their peak-occupancy points.
func (d *driver) sample() {
	if a := d.k.Phys().AllocatedPages(); a > d.peakPages {
		d.peakPages = a
	}
}

// DefaultWindow reports a scenario's steady-state in-flight request
// window at the given CPU count — the value Config.Window overrides
// (and the baseline sim/fleet's traffic surge multiplies). Zero for
// scenarios without a window knob.
func DefaultWindow(s Scenario, cpus int) int {
	if cpus < 1 {
		cpus = 1
	}
	switch s {
	case Prefork:
		return cpus
	case BuildFarm:
		return 2 * cpus
	case NetLB, KVShard:
		// The distributed client's in-flight window is a property of
		// the cell, not of any one machine's CPU count.
		return 4
	}
	return 0
}

// Prepared is a machine warmed for a measured run: the server's
// resident dirty heap is mapped and touched, and the resolved Config
// is pinned. The warm-up's virtual-time cost is the caller's to
// account; Run measures only the scenario loop.
type Prepared struct {
	cfg       Config
	sys       *sim.System
	heapStart uint64
	heapBytes uint64
}

// Prepare warms an existing machine for cfg's scenario — the step
// between boot and the measured loop: map and dirty the server heap.
// Run, NewTemplate, NewServer and the migration cell's source machine
// all warm through it.
func Prepare(sys *sim.System, cfg Config) (*Prepared, error) {
	cfg = cfg.withDefaults()

	// The server's resident, dirty heap — what fork must duplicate
	// page-table entries for on every creation.
	host := sys.Host()
	ps := uint64(mem.PageSize)
	if cfg.HugePages {
		ps = mem.HugeSize
	}
	heap := (cfg.HeapBytes + ps - 1) &^ (ps - 1)
	vma, err := host.Space().Map(0, heap, addrspace.Read|addrspace.Write, addrspace.MapOpts{
		Kind: addrspace.KindAnon, Name: "server-heap", Huge: cfg.HugePages,
	})
	if err != nil {
		return nil, fmt.Errorf("load: map heap: %w", err)
	}
	if err := host.Space().Touch(vma.Start, heap, addrspace.AccessWrite); err != nil {
		return nil, fmt.Errorf("load: dirty heap: %w", err)
	}
	return &Prepared{cfg: cfg, sys: sys, heapStart: vma.Start, heapBytes: heap}, nil
}

// System is the prepared machine — exposed so callers (tests, the E13
// host-cost experiment) can inspect the warmed state before Run.
func (p *Prepared) System() *sim.System { return p.sys }

// Run boots a fresh machine, warms it, and executes one scenario,
// reporting its metrics. Counters are zeroed after the warm-up, so
// boot and heap-dirtying cost is excluded from the measured loop.
func Run(cfg Config) (*Metrics, error) {
	cfg = cfg.withDefaults()
	if cfg.Scenario.Distributed() {
		return runNetCell(cfg, nil)
	}
	if cfg.Scenario == Migrate {
		// Also a network cell: cfg.Faults is the wire's schedule.
		return runMigrateCell(cfg)
	}
	if cfg.Faults != nil && cfg.Scenario != Prefork {
		return nil, fmt.Errorf("load: scenario %s does not support fault injection (only prefork and the distributed scenarios are failure-tolerant)", cfg.Scenario)
	}
	sys, err := sim.NewSystem(
		sim.WithRAM(cfg.RAMBytes),
		sim.WithCPUs(cfg.CPUs),
		sim.WithUserland("true", "echo", "cat", "hog", "smpspin"),
	)
	if err != nil {
		return nil, err
	}
	p, err := Prepare(sys, cfg)
	if err != nil {
		return nil, err
	}
	// Chaos arms only now: warm-up (boot, heap dirtying) stays clean,
	// the measured loop runs under the schedule.
	if cfg.Faults != nil {
		sys.SetFaultSchedule(cfg.Faults)
	}
	return p.Run()
}

// Run executes the prepared scenario once, measuring from the current
// virtual instant: counters are zeroed, the loop runs, and the
// metrics are assembled. Call it once per Prepare.
func (p *Prepared) Run() (*Metrics, error) {
	cfg := p.cfg
	d := &driver{cfg: cfg, sys: p.sys, k: p.sys.Kernel(), heapStart: p.heapStart}
	heap := p.heapBytes

	meter := d.k.Meter()
	meter.ResetCounters()
	cswBase := d.k.ContextSwitches()
	oomBase := d.k.OOMKills
	busyBase := make([]uint64, cfg.CPUs)
	clockBase := make([]uint64, cfg.CPUs)
	for _, cs := range d.k.CPUStates() {
		busyBase[cs.CPU] = uint64(cs.Busy)
		clockBase[cs.CPU] = uint64(cs.Clock)
	}
	t0 := d.k.Elapsed()
	d.sample()

	var err error
	switch cfg.Scenario {
	case Prefork:
		err = d.prefork()
	case Pipeline:
		err = d.pipeline()
	case Checkpoint:
		err = d.checkpoint()
	case ForkStorm:
		err = d.forkstorm()
	case SMPServer:
		err = d.smpserver()
	case BuildFarm:
		err = d.buildfarm()
	default:
		err = fmt.Errorf("load: unknown scenario %q", cfg.Scenario)
	}
	if err != nil {
		return nil, fmt.Errorf("load: %s via %v: %w", cfg.Scenario, cfg.Via, err)
	}

	m := loopMetrics(cfg, heap, d.requests, d.creations, uint64(d.k.Elapsed()-t0), meter)
	m.FailedRequests = d.failed
	m.OOMKills = uint64(d.k.OOMKills - oomBase)
	m.PeakRSSBytes = d.peakPages * uint64(mem.PageSize)
	m.ContextSwitches = d.k.ContextSwitches() - cswBase
	m.CPUUtilization = make([]float64, cfg.CPUs)
	m.ServerCPUNanos = d.serverCPU
	for _, cs := range d.k.CPUStates() {
		if advanced := uint64(cs.Clock) - clockBase[cs.CPU]; advanced > 0 {
			m.CPUUtilization[cs.CPU] = float64(uint64(cs.Busy)-busyBase[cs.CPU]) / float64(advanced)
		}
	}
	return m, nil
}

// loopMetrics assembles what every measured loop reports: the run's
// identity, its unit counts and virtual time, the event counters of
// the loop's machines' meters (summed), and the per-virtual-second
// rates. Callers fill in their scenario-specific fields.
func loopMetrics(cfg Config, heapBytes, requests, creations, elapsed uint64, meters ...*cost.Meter) *Metrics {
	m := &Metrics{
		Scenario:     string(cfg.Scenario),
		Strategy:     cfg.Via.String(),
		HeapBytes:    heapBytes,
		RAMBytes:     cfg.RAMBytes,
		NumCPUs:      cfg.CPUs,
		Requests:     requests,
		Creations:    creations,
		VirtualNanos: elapsed,
	}
	for _, meter := range meters {
		m.PageFaults += meter.PageFaults
		m.PageCopies += meter.PageCopies
		m.PageZeroes += meter.PageZeroes
		m.PTECopies += meter.PTECopies
		m.TLBShootdowns += meter.TLBShootdowns
		m.Syscalls += meter.Syscalls
		m.Instructions += meter.Instructions
	}
	if elapsed > 0 {
		m.RequestsPerVSec = float64(requests) * 1e9 / float64(elapsed)
		m.CreationsPerVSec = float64(creations) * 1e9 / float64(elapsed)
	}
	return m
}
