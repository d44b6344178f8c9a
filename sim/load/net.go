package load

import (
	"container/heap"
	"fmt"

	"repro/internal/cost"
	simnet "repro/sim/net"
)

// Distributed scenarios: multi-machine topologies wired over the
// sim/net fabric. One run is one "cell" — a self-contained,
// single-threaded discrete-event simulation merging packet arrivals
// and client timers in (virtual time, address, seq) order — so a cell
// replays bit-for-bit at any GOMAXPROCS, and host parallelism applies
// across cells (the fleet's machine axis), never within one.
//
// NetLB is an L7 load balancer fronting a pool of prefork-style
// backends: a closed-loop client keeps Window requests in flight
// through the balancer, each served by a real load.Server machine
// (fork- or spawn-created workers, per Config.Via). Midway through
// the run one backend restarts and is unavailable while it re-pays
// its warm-up — heap dirtying plus pool creation, so under fork the
// outage is Θ(heap) longer than under spawn — and the client's
// timeout/retry counters measure the resulting retry storm
// (experiments.NetClaim, E15).
//
// KVShard is a shard-per-machine KV service: the client hashes each
// get to its shard and retries on timeout, so fault schedules on the
// wire (fault.NetChaos drops, fault.NetSplit partitions) convert
// into retries and, past the attempt budget, failed requests.

// Cell wiring constants: the client's timeout/retry policy and the
// priced (not stored) message sizes.
const (
	// netTimeout is the client's per-attempt response deadline. It
	// sits between a spawn pool's re-warm time (~30ms) and a fork
	// pool's (~46ms) at the default 64 MiB heap, which is what makes
	// the NetLB backend restart legible in the timeout counters: a
	// request queued behind a spawn re-warm still answers in time, one
	// behind a fork re-warm times out and retries (E15).
	netTimeout = 35 * cost.Millisecond
	// netMaxAttempts bounds the retry loop; a request still
	// unanswered after this many attempts is failed.
	netMaxAttempts = 3

	netReqBytes  = 512  // client -> LB request
	netFwdBytes  = 512  // LB -> backend forward
	netRespBytes = 2048 // backend -> client response (direct return)
	netGetBytes  = 128  // client -> shard get
	netValBytes  = 1024 // shard -> client value
)

// Distributed reports whether s is a multi-machine scenario run as a
// network cell (fault schedules apply to the wire, not the machines).
func (s Scenario) Distributed() bool { return s == NetLB || s == KVShard }

// netTimer is one pending client timeout: attempt att of request req
// expires at time at unless a response resolves it first.
type netTimer struct {
	at  cost.Ticks
	req int
	att int
	seq uint64 // arming order, the deterministic tie-break
}

type netTimerHeap []netTimer

func (h netTimerHeap) Len() int { return len(h) }
func (h netTimerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h netTimerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *netTimerHeap) Push(x any)   { *h = append(*h, x.(netTimer)) }
func (h *netTimerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	*h = old[:n-1]
	return t
}

// netReq is one request's client-side state.
type netReq struct {
	attempts int
	resolved bool
}

// netCell is one distributed run: the fabric, the backing Server
// machines, and the client/balancer state the event loop advances.
// Addresses: 0 is the client; NetLB puts the balancer at 1 and
// backends at 2..; KVShard puts shards at 1..
type netCell struct {
	cfg     Config
	fab     *simnet.Fabric
	servers []*Server    // one per backend/shard, indexed by addr-first
	avail   []cost.Ticks // per server: busy-until on the cell timeline
	first   int          // address of servers[0]

	timers netTimerHeap
	tseq   uint64

	reqs     []netReq
	nextReq  int
	inWindow int
	window   int

	served, failedReqs uint64
	timeouts, retries  uint64
	creations          uint64
	completed          []uint64 // per server: requests completed
	restartAfter       uint64   // NetLB: backend 0 restarts after this many
	restarted          bool
	lastDone           cost.Ticks // resolution time of the last request
	err                error
}

const netClientAddr = 0
const netLBAddr = 1

// runNetCell executes one distributed scenario. Backends come from
// tc.Server: stamped from its server templates (the fleet's
// warm-template path), or cold-booted when tc is nil; both produce
// byte-identical Metrics.
func runNetCell(cfg Config, tc *Templates) (*Metrics, error) {
	cfg = cfg.withDefaults()
	n := cfg.Nodes

	c := &netCell{
		cfg:       cfg,
		avail:     make([]cost.Ticks, n),
		completed: make([]uint64, n),
		reqs:      make([]netReq, cfg.Requests),
		window:    cfg.Window,
	}
	if c.window < 1 {
		c.window = DefaultWindow(cfg.Scenario, cfg.CPUs)
	}
	switch cfg.Scenario {
	case NetLB:
		c.first = netLBAddr + 1
		c.restartAfter = uint64(cfg.Requests / (3 * n))
		if c.restartAfter < 1 {
			c.restartAfter = 1
		}
	case KVShard:
		c.first = netClientAddr + 1
	default:
		return nil, fmt.Errorf("load: %s is not a distributed scenario", cfg.Scenario)
	}

	// The backing machines. Their own fault injectors stay clean —
	// cfg.Faults is the wire's schedule, installed on the fabric.
	bcfg := cfg
	bcfg.Scenario = Prefork
	bcfg.Faults = nil
	for i := 0; i < n; i++ {
		s, err := tc.Server(bcfg)
		if err != nil {
			return nil, fmt.Errorf("load: %s backend %d: %w", cfg.Scenario, i, err)
		}
		c.servers = append(c.servers, s)
	}
	defer func() {
		for _, s := range c.servers {
			if !s.drained {
				s.Drain()
			}
		}
	}()

	var opts []simnet.Option
	if cfg.Faults != nil {
		opts = append(opts, simnet.WithFaults(cfg.Faults))
	}
	fab, err := simnet.New(c.first+n, cost.DefaultModel(), opts...)
	if err != nil {
		return nil, err
	}
	c.fab = fab

	// Measure from here: the loop's counters exclude warm-up, like
	// every other scenario.
	cswBase := make([]uint64, n)
	for i, s := range c.servers {
		s.k.Meter().ResetCounters()
		cswBase[i] = s.k.ContextSwitches()
	}

	// Seed the closed loop and run the merged event queue dry:
	// earliest of (next packet arrival, next timer), packets first on
	// ties — a response beats its own deadline.
	c.launch(0)
	for c.err == nil {
		ta, okA := fab.NextArrival()
		var tt cost.Ticks
		okT := len(c.timers) > 0
		if okT {
			tt = c.timers[0].at
		}
		if !okA && !okT {
			break
		}
		if okA && (!okT || ta <= tt) {
			if p, ok := fab.DeliverNext(); ok {
				c.handle(p)
			}
			continue
		}
		c.fire(heap.Pop(&c.timers).(netTimer))
	}
	if c.err != nil {
		return nil, fmt.Errorf("load: %s via %v: %w", cfg.Scenario, cfg.Via, c.err)
	}

	meters := make([]*cost.Meter, n)
	for i, s := range c.servers {
		meters[i] = s.k.Meter()
	}
	m := loopMetrics(cfg, c.servers[0].cfg.HeapBytes, c.served, c.creations, uint64(c.lastDone), meters...)
	m.FailedRequests = c.failedReqs
	m.NetTimeouts = c.timeouts
	m.NetRetries = c.retries
	m.addFabric(fab)
	for i, s := range c.servers {
		m.ContextSwitches += s.k.ContextSwitches() - cswBase[i]
		if rss := s.PeakRSSBytes(); rss > m.PeakRSSBytes {
			m.PeakRSSBytes = rss
		}
	}
	return m, nil
}

// addFabric records a network cell's wire counters: the fabric's
// totals across every node and its per-flow log.
func (m *Metrics) addFabric(fab *simnet.Fabric) {
	tot := fab.Totals()
	m.NetPacketsSent = tot.PacketsSent
	m.NetPacketsRecv = tot.PacketsRecv
	m.NetBytesSent = tot.BytesSent
	m.NetBytesRecv = tot.BytesRecv
	m.NetDrops = tot.DropsSend + tot.DropsRecv
	for _, fl := range fab.Flows() {
		m.NetFlows = append(m.NetFlows, NetFlow{
			Src: fl.Src, Dst: fl.Dst, Flow: fl.Flow,
			Packets: fl.Packets, Bytes: fl.Bytes, Drops: fl.Drops,
		})
	}
}

// launch tops the client's in-flight window up at time now.
func (c *netCell) launch(now cost.Ticks) {
	for c.inWindow < c.window && c.nextReq < len(c.reqs) {
		c.attempt(c.nextReq, now)
		c.inWindow++
		c.nextReq++
	}
}

// attempt sends one try of request req at time now and arms its
// timeout. A send-side drop still arms the timer — the client cannot
// see the wire eat its packet.
func (c *netCell) attempt(req int, now cost.Ticks) {
	att := c.reqs[req].attempts
	c.reqs[req].attempts++
	tag := uint64(req)<<8 | uint64(att)
	switch c.cfg.Scenario {
	case NetLB:
		c.fab.Send(netClientAddr, netLBAddr, "req", tag, netReqBytes, now)
	case KVShard:
		c.fab.Send(netClientAddr, c.first+req%len(c.servers), "get", tag, netGetBytes, now)
	}
	c.tseq++
	heap.Push(&c.timers, netTimer{at: now + netTimeout, req: req, att: att, seq: c.tseq})
}

// handle routes one delivered packet.
func (c *netCell) handle(p simnet.Packet) {
	req := int(p.Tag >> 8)
	att := int(p.Tag & 0xff)
	switch {
	case p.Dst == netClientAddr:
		// A response. Late ones (the request already timed out or a
		// prior attempt answered) are ignored.
		if !c.reqs[req].resolved {
			c.resolve(req, p.Arrival, true)
		}
	case c.cfg.Scenario == NetLB && p.Dst == netLBAddr:
		// Balancer: forward to a backend. Retries rotate so a retry
		// never re-queues behind the backend that timed it out.
		b := (req + att) % len(c.servers)
		c.fab.Send(netLBAddr, c.first+b, "fwd", p.Tag, netFwdBytes, p.Arrival)
	default:
		// A backend/shard serves the request on its own machine and
		// returns the response directly to the client. Served even if
		// the client has moved on — wasted work is the retry storm's
		// cost, and it keeps the backend clock honest.
		i := p.Dst - c.first
		flow := "resp"
		bytes := uint64(netRespBytes)
		if c.cfg.Scenario == KVShard {
			flow, bytes = "val", netValBytes
		}
		done := c.serve(i, p.Arrival)
		c.fab.Send(p.Dst, netClientAddr, flow, p.Tag, bytes, done)
	}
}

// serve runs one request on server i, arriving on the cell timeline
// at arrival, and returns its completion time. The service duration
// is measured on the machine's own virtual clock (a real ServeBatch);
// queueing behind earlier requests and behind a NetLB restart's
// re-warm window happens on the cell timeline via avail.
func (c *netCell) serve(i int, arrival cost.Ticks) cost.Ticks {
	start := arrival
	if c.avail[i] > start {
		start = c.avail[i]
	}
	b, err := c.servers[i].ServeBatch(1, 0)
	if err != nil {
		c.err = err
		return start
	}
	c.creations += b.Creations
	done := start + cost.Ticks(b.Nanos)
	c.avail[i] = done
	c.completed[i]++
	// The E15 event: one NetLB backend restarts mid-run and re-pays
	// its measured warm-up (heap dirtying + pool creation) before it
	// can serve again — Θ(heap) longer under fork than under spawn.
	if c.cfg.Scenario == NetLB && i == 0 && !c.restarted && c.completed[i] >= c.restartAfter {
		c.restarted = true
		c.avail[i] = done + cost.Ticks(c.servers[i].WarmupNanos())
	}
	return done
}

// fire handles one expired timeout: if the attempt it guards is still
// the latest and unanswered, the request times out and retries (or
// fails past the attempt budget).
func (c *netCell) fire(t netTimer) {
	r := &c.reqs[t.req]
	if r.resolved || r.attempts != t.att+1 {
		return
	}
	c.timeouts++
	if r.attempts < netMaxAttempts {
		c.retries++
		c.attempt(t.req, t.at)
		return
	}
	c.resolve(t.req, t.at, false)
}

// resolve finishes request req at time at and refills the window.
func (c *netCell) resolve(req int, at cost.Ticks, ok bool) {
	c.reqs[req].resolved = true
	c.inWindow--
	if ok {
		c.served++
	} else {
		c.failedReqs++
	}
	if at > c.lastDone {
		c.lastDone = at
	}
	c.launch(at)
}
