package load

import (
	"fmt"
	"strconv"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/sim"
)

// Server is a persistent prefork-style request server on its own
// machine — the one way a warmed, pooled machine comes to exist.
// NewServer (or a stamp from Templates.Server) is the machine's
// warm-up: boot, dirty heap, pre-created worker pool, all on the
// machine's virtual clock, so fork's Θ(heap) pool tax is in the
// measured warm-up. Then it serves: in batches interleaved with an
// external control loop (ServeBatch — sim/cluster's reconcile step,
// the net cells' per-request service) or as one measured prefork
// phase (Run — sim/fleet's rolling-restart replacement instance).
// Drain tears the pool down and closes the leak books.
//
// A Server is single-goroutine: the caller serializes ServeBatch /
// Run / Drain. Distinct Servers are independent machines and may run
// host-parallel.
type Server struct {
	cfg     Config
	workers int
	sys     *sim.System
	k       *kernel.Kernel
	pool    []*sim.Process

	// heapStart/heapBytes locate the dirty server heap Prepare
	// mapped, which Run's measured phase needs.
	heapStart, heapBytes uint64

	// tpl is the template this server was stamped from (nil when
	// cold-booted); Drain recycles the machine's allocations back
	// into it once the books are closed.
	tpl *sim.Template

	warmNanos uint64
	warmPTEs  uint64

	// Post-warm-up resource baselines: what Drain must get back to.
	baseProcs          int
	basePages, baseCmt uint64

	peakPages uint64
	drained   bool
}

// Batch is one ServeBatch's outcome.
type Batch struct {
	// Served and Failed count requests completed and lost in this
	// batch (failures are tolerated, as in chaos mode).
	Served, Failed int
	// Creations is worker processes created for this batch.
	Creations uint64
	// Nanos is the virtual time the batch consumed on the machine's
	// clock.
	Nanos uint64
}

// DrainStats is the scale-down bookkeeping: resource counters at the
// post-warm-up baseline and after the pool teardown. A leak-free
// strategy returns every End counter to its Base.
type DrainStats struct {
	BaseProcs, EndProcs   int
	BasePages, EndPages   uint64
	BaseCommit, EndCommit uint64
}

// NewServer boots a machine and warms it to ready-to-serve: map and
// dirty the server heap, then pre-create the parked worker pool
// through cfg.Via. cfg.Workers sizes the pool (default 4×CPUs — a
// server keeps spare workers beyond its steady-state window);
// cfg.Scenario must be empty or Prefork. The warm-up runs on the
// machine's virtual clock; WarmupNanos reports it.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Scenario != "" && cfg.Scenario != Prefork {
		return nil, fmt.Errorf("load: Server serves prefork traffic only, not %q", cfg.Scenario)
	}
	cfg.Scenario = Prefork
	rawWorkers := cfg.Workers
	cfg = cfg.withDefaults()
	workers := rawWorkers
	if workers <= 0 {
		workers = 4 * cfg.CPUs
	}
	sys, err := sim.NewSystem(
		sim.WithRAM(cfg.RAMBytes),
		sim.WithCPUs(cfg.CPUs),
		sim.WithUserland("true", "hog"),
	)
	if err != nil {
		return nil, err
	}
	k := sys.Kernel()

	t0 := k.Elapsed()
	pteBase := k.Meter().PTECopies
	prep, err := Prepare(sys, cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg: cfg, workers: workers, sys: sys, k: k,
		heapStart: prep.heapStart, heapBytes: prep.heapBytes,
		baseProcs: k.ProcessCount(),
		basePages: k.Phys().AllocatedPages(),
		baseCmt:   k.Phys().Committed(),
	}
	for i := 0; i < workers; i++ {
		p, err := sys.Command("true").Via(cfg.Via).Create()
		if err != nil {
			s.teardown()
			return nil, fmt.Errorf("load: warm pool worker %d via %v: %w", i, cfg.Via, err)
		}
		s.pool = append(s.pool, p)
	}
	s.warmNanos = uint64(k.Elapsed() - t0)
	s.warmPTEs = k.Meter().PTECopies - pteBase
	s.observe()
	return s, nil
}

// request builds one request's worker command: with RequestWorkMiB
// set the worker is a hog that allocates and write-touches its own
// working set, otherwise it is a trivial exit.
func (s *Server) request() *sim.Cmd {
	if s.cfg.RequestWorkMiB > 0 {
		return s.sys.Command("hog", strconv.Itoa(s.cfg.RequestWorkMiB)).Via(s.cfg.Via)
	}
	return s.sys.Command("true").Via(s.cfg.Via)
}

// ServeBatch serves up to n requests in the scenario's closed loop
// (Window in flight, each request a fresh worker via cfg.Via). When
// budgetNanos > 0 the server stops launching new requests once the
// batch has consumed that much virtual time — leftover requests are
// the caller's backlog — but always drains what is in flight, so the
// returned Nanos may overshoot the budget by up to one request.
// Failures (creation refused, worker lost) are tolerated and counted.
func (s *Server) ServeBatch(n int, budgetNanos uint64) (Batch, error) {
	if s.drained {
		return Batch{}, fmt.Errorf("load: ServeBatch on a drained server")
	}
	window := s.cfg.Window
	if window < 1 {
		window = DefaultWindow(Prefork, s.cfg.CPUs)
	}
	t0 := s.k.Elapsed()
	var b Batch
	var inflight []*sim.Cmd
	launched := 0
	overBudget := func() bool {
		return budgetNanos > 0 && uint64(s.k.Elapsed()-t0) >= budgetNanos
	}
	for launched < n || len(inflight) > 0 {
		for len(inflight) < window && launched < n && !overBudget() {
			cmd := s.request()
			launched++
			if err := cmd.Start(); err != nil {
				b.Failed++ // creation refused: the request is lost
				continue
			}
			b.Creations++
			inflight = append(inflight, cmd)
		}
		if len(inflight) == 0 {
			if overBudget() || launched >= n {
				break
			}
			continue // every launch in this window failed
		}
		s.observe()
		cmd := inflight[0]
		inflight = inflight[1:]
		if err := cmd.Wait(); err != nil {
			b.Failed++ // worker died mid-request
		} else {
			b.Served++
		}
	}
	b.Nanos = uint64(s.k.Elapsed() - t0)
	s.observe()
	return b, nil
}

// observe updates the RSS high-water mark.
func (s *Server) observe() {
	if a := s.k.Phys().AllocatedPages(); a > s.peakPages {
		s.peakPages = a
	}
}

// Run serves one measured prefork phase of cfg.Requests requests on
// the ready machine (Prepared.Run: counters zeroed first, so the
// pool's creation bill stays in WarmupPTECopies). The pool stays
// resident throughout, so its footprint is in the measured peak RSS.
func (s *Server) Run() (*Metrics, error) {
	if s.drained {
		return nil, fmt.Errorf("load: Run on a drained server")
	}
	p := &Prepared{cfg: s.cfg, sys: s.sys, heapStart: s.heapStart, heapBytes: s.heapBytes}
	return p.Run()
}

// WarmupNanos is the virtual time from boot to ready-to-serve: heap
// dirtying plus pool creation — the scale-out latency sim/cluster
// charges a new machine and the restart tax of sim/fleet's rolling
// wave.
func (s *Server) WarmupNanos() uint64 { return s.warmNanos }

// WarmupPTECopies is the warm-up's page-table bill: under fork each
// pool worker duplicates the freshly dirtied heap's page tables.
func (s *Server) WarmupPTECopies() uint64 { return s.warmPTEs }

// PeakRSSBytes is the resident-memory high-water mark observed so far.
func (s *Server) PeakRSSBytes() uint64 { return s.peakPages * uint64(mem.PageSize) }

// Elapsed is the machine's virtual clock (nanoseconds since boot).
func (s *Server) Elapsed() uint64 { return uint64(s.k.Elapsed()) }

// Drain tears down the worker pool — scale-down — and reports the
// resource books: a leak-free strategy returns process, frame, and
// commit counts to the post-warm-up baseline. The server cannot serve
// after Drain; calling it twice is an error.
func (s *Server) Drain() (DrainStats, error) {
	if s.drained {
		return DrainStats{}, fmt.Errorf("load: Drain on a drained server")
	}
	s.teardown()
	stats := DrainStats{
		BaseProcs: s.baseProcs, EndProcs: s.k.ProcessCount(),
		BasePages: s.basePages, EndPages: s.k.Phys().AllocatedPages(),
		BaseCommit: s.baseCmt, EndCommit: s.k.Phys().Committed(),
	}
	if s.tpl != nil {
		// Books are closed; recycle the machine's allocations into
		// the template's next stamp. Nil the handles so a late
		// accessor fails loudly instead of reading whatever
		// machine is stamped into the recycled shell next.
		s.tpl.Release(s.sys)
		s.sys, s.k = nil, nil
	}
	return stats, nil
}

func (s *Server) teardown() {
	for _, p := range s.pool {
		p.Destroy()
	}
	s.pool = nil
	s.drained = true
}
