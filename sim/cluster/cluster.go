package cluster

import (
	"fmt"
	"math"
	"time"

	"repro/sim/fault"
	"repro/sim/fleet"
	"repro/sim/load"
)

// machine is one live cluster machine: a persistent load.Server, its
// cluster identity (id, zone), and the reconcile loop's bookkeeping.
// The loop's virtual clock advances in ReconcileEvery steps; the
// machine's own clock runs ahead inside each step (warm-up, then each
// batch), and cum tracks how much of the loop's elapsed time it has
// already spent serving.
type machine struct {
	id, pool, zone int
	srv            *load.Server

	// readyStep is the first step the machine takes traffic: 0 for
	// the pre-warmed initial machines, decision step + warm-up for
	// scaled-out ones.
	readyStep int

	// queue holds the arrival step of every request routed here and
	// not yet served (FIFO).
	queue []int

	// cum is the serve time consumed so far, against a budget of
	// (step+1-readyStep) * dt. Idle steps do not bank: the budget is
	// re-clamped each step.
	cum uint64

	// batch is the current step's serve result (scratch, merged at
	// the step barrier).
	batch load.Batch
}

// ready reports whether the machine takes traffic at step.
func (m *machine) ready(step int) bool { return m.readyStep <= step }

// load is the balancer's comparison key: queued requests (plus this
// step's assignments) per CPU. Compared cross-multiplied to stay in
// integers.
func (m *machine) queued() int { return len(m.queue) }

// poolState is one pool's live machines and cumulative accounting.
type poolState struct {
	idx  int
	spec PoolSpec
	zs   []int // resolved placement zones

	machines []*machine // live, ascending id
	backlog  []int      // un-routed arrivals (arrival step), unshared mode
	lowSteps int        // consecutive low-utilization steps
	nextZone int        // round-robin placement cursor

	served, failed, sloMet uint64
	latencySum, latencyMax uint64
	cumServeNanos          uint64
	scaleOuts              []ScaleOut
	scaleDowns, killed     int
	booted, peakMachines   int
	warmupPTEs             uint64
	peakMachineRSS         uint64
	drains                 []load.DrainStats
}

// estCost is the pool's measured mean per-request serve time, the
// demand projection for queued requests. Before anything has been
// served it assumes one full step per request — pessimistic, so a
// cold pool under load scales out rather than stalls.
func (p *poolState) estCost(dt uint64) float64 {
	if p.served+p.failed == 0 {
		return float64(dt)
	}
	return float64(p.cumServeNanos) / float64(p.served+p.failed)
}

// engine is one run's state.
type engine struct {
	spec    Spec
	dt      uint64
	pools   []*poolState
	shared  []int // global backlog (shared-stream mode)
	nextID  int
	killSeq uint64
	netSeq  uint64 // balancer reachability-probe op counter
	// lastKill[z] is the most recent step a kill fired in zone z
	// (-1: never); zones stay cordoned CordonSteps after it.
	lastKill []int
	trace    []string
	workers  int

	// boots caches one frozen warmed server template per machine
	// shape: the first boot of a shape warms it for real, every later
	// scale-out of that shape is stamped from the template in O(live
	// structures) host time instead of Θ(heap). Virtual-time behaviour
	// (measured scale-out latency included) is identical either way.
	boots *load.ServerTemplates
}

// Run executes the cluster to completion: boot the pools' minimum
// machines pre-warmed, then reconcile step by step — kills, arrivals,
// balance, serve, autoscale, boot — until the traffic plan is
// exhausted and every queue has drained. The Report is a pure function
// of the Spec: byte-identical at any GOMAXPROCS.
func Run(spec Spec) (*Report, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	e := &engine{
		spec:     spec,
		dt:       spec.ReconcileEveryNanos,
		lastKill: make([]int, spec.Zones),
		workers:  fleet.PoolSize(spec.Parallelism, 0),
		boots:    load.NewServerTemplates(),
	}
	for z := range e.lastKill {
		e.lastKill[z] = -1
	}
	for i, ps := range spec.Pools {
		e.pools = append(e.pools, &poolState{idx: i, spec: ps, zs: ps.zones(spec.Zones)})
	}

	// Pre-warm the floor: every pool's MinMachines boot before the
	// clock starts and are ready at step 0 — their warm-up is the
	// steady state's sunk cost, not scale-out latency.
	var boots []*machine
	for _, p := range e.pools {
		for i := 0; i < p.spec.MinMachines; i++ {
			boots = append(boots, e.allocMachine(p, 0))
		}
	}
	if err := e.boot(boots); err != nil {
		return nil, err
	}
	for _, m := range boots {
		m.readyStep = 0
	}

	steps, err := e.loop()
	if err != nil {
		return nil, err
	}
	e.retireAll()
	rep := e.report(steps)
	rep.HostElapsed = time.Since(start)
	rep.HostWorkers = e.workers
	return rep, nil
}

// allocMachine assigns the next machine id and a placement zone in
// pool p (round-robin over the pool's zones, skipping cordoned ones
// when any alternative survives), and registers the machine live.
// The machine's Server boots later, host-parallel.
func (e *engine) allocMachine(p *poolState, step int) *machine {
	zone := -1
	for try := 0; try < len(p.zs); try++ {
		z := p.zs[(p.nextZone+try)%len(p.zs)]
		if !e.cordoned(z, step) {
			zone = z
			p.nextZone = (p.nextZone + try + 1) % len(p.zs)
			break
		}
	}
	if zone == -1 { // every placement zone is cordoned: place anyway
		zone = p.zs[p.nextZone%len(p.zs)]
		p.nextZone = (p.nextZone + 1) % len(p.zs)
	}
	m := &machine{id: e.nextID, pool: p.idx, zone: zone}
	e.nextID++
	p.machines = append(p.machines, m)
	p.booted++
	if len(p.machines) > p.peakMachines {
		p.peakMachines = len(p.machines)
	}
	return m
}

// cordoned reports whether zone z is still avoided at step.
func (e *engine) cordoned(z, step int) bool {
	return e.lastKill[z] >= 0 && step-e.lastKill[z] < e.spec.CordonSteps
}

// boot builds the Servers for the allocated shells, host-parallel,
// merging in id order.
func (e *engine) boot(ms []*machine) error {
	if len(ms) == 0 {
		return nil
	}
	err := fleet.ForEach(fleet.PoolSize(e.spec.Parallelism, len(ms)), len(ms), func(i int) error {
		m := ms[i]
		ps := e.pools[m.pool].spec
		srv, err := e.boots.Server(load.Config{
			Via:            ps.Via,
			CPUs:           ps.CPUs,
			HeapBytes:      ps.HeapBytes,
			Workers:        ps.Workers,
			RequestWorkMiB: e.spec.RequestWorkMiB,
		})
		if err != nil {
			return fmt.Errorf("cluster: boot machine %d (pool %s): %w", m.id, ps.Name, err)
		}
		m.srv = srv
		return nil
	})
	if err != nil {
		return err
	}
	for _, m := range ms {
		e.pools[m.pool].warmupPTEs += m.srv.WarmupPTECopies()
	}
	return nil
}

// arrivals reports how many requests arrive at step (per pool in
// unshared mode, cluster-wide in shared mode).
func (e *engine) arrivals(step int) int {
	for _, ph := range e.spec.Traffic {
		if step < ph.Steps {
			return ph.PerStep
		}
		step -= ph.Steps
	}
	return 0
}

// trafficSteps is the arrival plan's length.
func (e *engine) trafficSteps() int {
	n := 0
	for _, ph := range e.spec.Traffic {
		n += ph.Steps
	}
	return n
}

// tracef appends one reconcile-trace line.
func (e *engine) tracef(format string, args ...any) {
	e.trace = append(e.trace, fmt.Sprintf(format, args...))
}

// loop runs the reconcile steps until the work is done, returning the
// step count.
func (e *engine) loop() (int, error) {
	for step := 0; step < e.spec.MaxSteps; step++ {
		// Machines finishing their warm-up this step join the
		// balancer's candidate set.
		for _, p := range e.pools {
			for _, m := range p.machines {
				if m.readyStep == step && step > 0 {
					e.tracef("step %04d pool %s machine %d ready (zone %d)", step, p.spec.Name, m.id, m.zone)
				}
			}
		}
		e.kills(step)
		if n := e.arrivals(step); n > 0 {
			for _, p := range e.pools {
				for i := 0; i < n; i++ {
					if e.spec.SharedStream {
						e.shared = append(e.shared, step)
					} else {
						p.backlog = append(p.backlog, step)
					}
				}
				if e.spec.SharedStream {
					break // one global stream, not one per pool
				}
			}
		}
		e.balance(step)
		if err := e.serve(step); err != nil {
			return 0, err
		}
		stepServe := e.merge(step)
		scaled := e.autoscale(step, stepServe)
		if err := e.boot(scaled); err != nil {
			return 0, err
		}
		e.bootReady(scaled)
		if e.done(step) {
			return step + 1, nil
		}
	}
	return e.spec.MaxSteps, fmt.Errorf("cluster: backlog not drained after %d steps (fleet under-provisioned for the traffic plan)", e.spec.MaxSteps)
}

// kills consults the fault schedule once per live machine, in
// (pool, id) order on the cluster clock. A killed machine's queue is
// requeued (the requests retry, keeping their arrival step) and its
// zone is cordoned.
func (e *engine) kills(step int) {
	if e.spec.Faults == nil {
		return
	}
	now := fault.Ticks(uint64(step) * e.dt)
	for _, p := range e.pools {
		alive := p.machines[:0]
		for _, m := range p.machines {
			e.killSeq++
			dec := e.spec.Faults.Decide(fault.Op{
				Point: fault.PointMachineKill, Seq: e.killSeq, Time: now, Mag: uint64(m.zone),
			})
			if dec == fault.OK {
				alive = append(alive, m)
				continue
			}
			e.lastKill[m.zone] = step
			p.killed++
			e.tracef("step %04d zone %d kill machine %d (pool %s, %d queued requeued)",
				step, m.zone, m.id, p.spec.Name, len(m.queue))
			// The lost machine's requests retry elsewhere; its sim is
			// abandoned (a crash keeps no books).
			if e.spec.SharedStream {
				e.shared = append(e.shared, m.queue...)
			} else {
				p.backlog = append(p.backlog, m.queue...)
			}
			if m.srv != nil {
				if rss := m.srv.PeakRSSBytes(); rss > p.peakMachineRSS {
					p.peakMachineRSS = rss
				}
			}
		}
		p.machines = alive
	}
}

// reachable probes whether the balancer can currently deliver to m:
// one fault.PointNetDeliver decision with magnitude = the machine's
// zone, on the cluster clock. A fault.ZonePartition schedule makes a
// whole zone's machines unreachable for its window — they stay alive
// (unlike kills) but take no traffic until the partition heals.
func (e *engine) reachable(m *machine, step int) bool {
	if e.spec.Faults == nil {
		return true
	}
	e.netSeq++
	dec := e.spec.Faults.Decide(fault.Op{
		Point: fault.PointNetDeliver, Seq: e.netSeq,
		Time: fault.Ticks(uint64(step) * e.dt), Mag: uint64(m.zone),
	})
	return dec == fault.OK
}

// balance routes backlog onto ready machines: power-of-two-choices
// with seeded hashing, less-loaded-per-CPU wins, lower machine id
// breaks ties. Unrouteable backlog (no ready machine, or none the
// balancer can reach) waits.
func (e *engine) balance(step int) {
	assigned := make(map[*machine]int)
	unreachable := 0
	ready := func(m *machine) bool {
		if !m.ready(step) {
			return false
		}
		if !e.reachable(m, step) {
			unreachable++
			return false
		}
		return true
	}
	route := func(stream *[]int, cands []*machine, salt uint64) {
		if len(cands) == 0 {
			return
		}
		for i, arrival := range *stream {
			a := cands[hash(e.spec.Seed, salt, uint64(step), uint64(i), 0)%uint64(len(cands))]
			b := cands[hash(e.spec.Seed, salt, uint64(step), uint64(i), 1)%uint64(len(cands))]
			pick := a
			// Compare (queued+assigned)/CPUs cross-multiplied; the
			// lower machine id wins exact ties.
			la := (a.queued() + assigned[a]) * e.pools[b.pool].spec.CPUs
			lb := (b.queued() + assigned[b]) * e.pools[a.pool].spec.CPUs
			if lb < la || (lb == la && b.id < a.id) {
				pick = b
			}
			pick.queue = append(pick.queue, arrival)
			assigned[pick]++
		}
		*stream = (*stream)[:0]
	}
	if e.spec.SharedStream {
		var cands []*machine
		for _, p := range e.pools {
			for _, m := range p.machines {
				if ready(m) {
					cands = append(cands, m)
				}
			}
		}
		route(&e.shared, cands, 0)
	} else {
		for _, p := range e.pools {
			var cands []*machine
			for _, m := range p.machines {
				if ready(m) {
					cands = append(cands, m)
				}
			}
			route(&p.backlog, cands, uint64(p.idx)+1)
		}
	}
	if unreachable > 0 {
		e.tracef("step %04d balance: %d machine(s) unreachable (network partition)", step, unreachable)
	}
}

// serve runs every ready machine's batch host-parallel. Each machine
// gets one step of budget, minus whatever its clock already overshot:
// idle time does not bank, so a surge cannot be absorbed by banked
// budget from quiet steps.
func (e *engine) serve(step int) error {
	var due []*machine
	for _, p := range e.pools {
		for _, m := range p.machines {
			m.batch = load.Batch{}
			if m.ready(step) && len(m.queue) > 0 {
				due = append(due, m)
			}
		}
	}
	if len(due) == 0 {
		return nil
	}
	return fleet.ForEach(fleet.PoolSize(e.spec.Parallelism, len(due)), len(due), func(i int) error {
		m := due[i]
		allot := uint64(step+1-m.readyStep) * e.dt
		owed := uint64(step-m.readyStep) * e.dt
		if m.cum > owed { // a past batch overshot its budget; the debt eats into this step
			owed = m.cum
		}
		if owed >= allot {
			return nil
		}
		b, err := m.srv.ServeBatch(len(m.queue), allot-owed)
		if err != nil {
			return fmt.Errorf("cluster: machine %d (pool %s): %w", m.id, e.pools[m.pool].spec.Name, err)
		}
		m.batch = b
		return nil
	})
}

// merge folds every machine's batch into its pool at the step barrier,
// in (pool, id) order: pop served requests FIFO, score latency against
// the SLO. Returns per-pool serve nanos for this step (the autoscaler's
// utilization input).
func (e *engine) merge(step int) []uint64 {
	stepServe := make([]uint64, len(e.pools))
	for pi, p := range e.pools {
		for _, m := range p.machines {
			b := m.batch
			if b.Served+b.Failed == 0 {
				continue
			}
			m.cum += b.Nanos
			p.cumServeNanos += b.Nanos
			stepServe[pi] += b.Nanos
			done := b.Served + b.Failed
			if done > len(m.queue) {
				done = len(m.queue)
			}
			for i := 0; i < done; i++ {
				arrival := m.queue[i]
				if i < b.Served {
					lat := uint64(step-arrival+1) * e.dt
					p.served++
					p.latencySum += lat
					if lat > p.latencyMax {
						p.latencyMax = lat
					}
					if lat <= e.spec.SLONanos {
						p.sloMet++
					}
				} else {
					p.failed++
				}
			}
			m.queue = m.queue[done:]
		}
	}
	return stepServe
}

// autoscale makes each pool's scaling decision, in pool order,
// returning the machine shells to boot. Projected utilization is
// (this step's serve time + queued demand at the measured per-request
// cost) over ready capacity; scale out toward the target under the
// surge cap, scale in one machine after ScaleDownAfter idle steps.
func (e *engine) autoscale(step int, stepServe []uint64) []*machine {
	var boots []*machine
	for pi, p := range e.pools {
		ready, booting, queued := 0, 0, 0
		for _, m := range p.machines {
			if m.ready(step) {
				ready++
			} else {
				booting++
			}
			queued += len(m.queue)
		}
		queued += e.poolBacklog(p)
		var util float64
		if ready > 0 {
			demand := float64(stepServe[pi]) + float64(queued)*p.estCost(e.dt)
			util = demand / (float64(ready) * float64(e.dt))
		} else if queued > 0 {
			util = math.Inf(1)
		}

		target := e.spec.TargetUtilization
		desired := ready
		if util > 0 {
			desired = int(math.Ceil(float64(ready) * util / target))
			if ready == 0 {
				desired = 1
			}
		}
		// The pool floor holds even after kills: a zone outage that
		// drops the pool below MinMachines backfills immediately (in
		// surviving zones — the dead one is cordoned).
		if desired < p.spec.MinMachines {
			desired = p.spec.MinMachines
		}
		total := ready + booting
		if desired > total {
			add := desired - total
			if add > p.spec.MaxSurge {
				add = p.spec.MaxSurge
			}
			if total+add > p.spec.MaxMachines {
				add = p.spec.MaxMachines - total
			}
			if add > 0 {
				p.lowSteps = 0
				for i := 0; i < add; i++ {
					m := e.allocMachine(p, step)
					// Decision is at the end of this step; bootReady
					// adds the measured warm-up once the shell boots.
					m.readyStep = -(step + 1)
					boots = append(boots, m)
					e.tracef("step %04d pool %s scale-up machine %d (zone %d, util %.3f, %d ready + %d booting)",
						step, p.spec.Name, m.id, m.zone, util, ready, booting)
				}
				continue
			}
		}

		// Scale-in: sustained low utilization, nothing queued, nothing
		// booting — retire the newest drained machine.
		if util < target/2 && queued == 0 && booting == 0 && ready > p.spec.MinMachines {
			p.lowSteps++
			if p.lowSteps >= e.spec.ScaleDownAfter {
				if e.scaleDown(p, step, util) {
					p.lowSteps = 0
				}
			}
		} else {
			p.lowSteps = 0
		}
	}
	return boots
}

// bootReady finishes a scale-out after the machine booted: its
// measured warm-up, rounded up to whole steps, sets when it joins the
// balancer, and the scale-out event is recorded.
func (e *engine) bootReady(ms []*machine) {
	for _, m := range ms {
		decision := -m.readyStep // end of step decision-1 == start of step decision
		warmSteps := int((m.srv.WarmupNanos() + e.dt - 1) / e.dt)
		m.readyStep = decision + warmSteps
		p := e.pools[m.pool]
		lat := uint64(warmSteps) * e.dt
		p.scaleOuts = append(p.scaleOuts, ScaleOut{
			Machine: m.id, Zone: m.zone, DecisionStep: decision - 1,
			ReadyStep: m.readyStep, LatencyNanos: lat,
		})
	}
}

// scaleDown retires the highest-id drained ready machine; reports
// whether one was found.
func (e *engine) scaleDown(p *poolState, step int, util float64) bool {
	for i := len(p.machines) - 1; i >= 0; i-- {
		m := p.machines[i]
		if !m.ready(step) || len(m.queue) > 0 {
			continue
		}
		if rss := m.srv.PeakRSSBytes(); rss > p.peakMachineRSS {
			p.peakMachineRSS = rss
		}
		stats, err := m.srv.Drain()
		if err == nil {
			p.drains = append(p.drains, stats)
		}
		p.machines = append(p.machines[:i], p.machines[i+1:]...)
		p.scaleDowns++
		e.tracef("step %04d pool %s scale-down machine %d (util %.3f, %d left)",
			step, p.spec.Name, m.id, util, len(p.machines))
		return true
	}
	return false
}

// poolBacklog is the pool's un-routed arrivals (its share of the
// global stream in shared mode, by ready CPU weight).
func (e *engine) poolBacklog(p *poolState) int {
	if !e.spec.SharedStream {
		return len(p.backlog)
	}
	totalCPUs, poolCPUs := 0, 0
	for _, q := range e.pools {
		for range q.machines {
			totalCPUs += q.spec.CPUs
			if q.idx == p.idx {
				poolCPUs += q.spec.CPUs
			}
		}
	}
	if totalCPUs == 0 {
		return len(e.shared)
	}
	return len(e.shared) * poolCPUs / totalCPUs
}

// done reports whether the run can stop: traffic exhausted and every
// backlog and machine queue empty.
func (e *engine) done(step int) bool {
	if step+1 < e.trafficSteps() || len(e.shared) > 0 {
		return false
	}
	for _, p := range e.pools {
		if len(p.backlog) > 0 {
			return false
		}
		for _, m := range p.machines {
			if len(m.queue) > 0 {
				return false
			}
		}
	}
	return true
}

// retireAll drains every surviving machine in (pool, id) order,
// closing the books for the leak invariant.
func (e *engine) retireAll() {
	for _, p := range e.pools {
		for _, m := range p.machines {
			if m.srv == nil {
				continue
			}
			if rss := m.srv.PeakRSSBytes(); rss > p.peakMachineRSS {
				p.peakMachineRSS = rss
			}
			if stats, err := m.srv.Drain(); err == nil {
				p.drains = append(p.drains, stats)
			}
		}
	}
}

// hash is splitmix64 over the fold of its inputs — the balancer's
// deterministic candidate picker.
func hash(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h = mix(h ^ v)
	}
	return h
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
