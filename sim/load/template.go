package load

import (
	"fmt"
	"sync"

	"repro/sim"
)

// Shape is a warm machine shape: everything the boot-and-warm phase of
// a scenario run depends on. Two Configs with the same Shape warm
// byte-identical machines, whatever their scenario, strategy, or
// request volume — which is why one frozen Template per Shape can
// serve every scenario in a sweep.
type Shape struct {
	CPUs      int
	RAMBytes  uint64
	HeapBytes uint64
	HugePages bool
}

// Shape reports cfg's resolved warm shape.
func (cfg Config) Shape() Shape {
	cfg = cfg.withDefaults()
	return Shape{
		CPUs:      cfg.CPUs,
		RAMBytes:  cfg.RAMBytes,
		HeapBytes: cfg.HeapBytes,
		HugePages: cfg.HugePages,
	}
}

// Template is a frozen machine warmed for one Shape: booted, userland
// installed, server heap mapped and dirtied — the state Run reaches
// just before it zeroes the counters and enters the scenario loop.
// Stamping a run out of it skips the Θ(heap) warm-up the cold path
// repeats per machine; virtual-time metrics are unchanged because a
// clone is logically the warmed machine itself. Safe for concurrent
// Stamp calls.
type Template struct {
	shape     Shape
	tpl       *sim.Template
	heapStart uint64
	heapBytes uint64
}

// NewTemplate boots and warms one machine for cfg's Shape and freezes
// it. The boot sequence is identical to Run's, so a stamped run and a
// cold run produce byte-identical Metrics.
func NewTemplate(cfg Config) (*Template, error) {
	cfg = cfg.withDefaults()
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
	tpl, err := sys.Snapshot()
	if err != nil {
		return nil, err
	}
	return &Template{shape: cfg.Shape(), tpl: tpl, heapStart: p.heapStart, heapBytes: p.heapBytes}, nil
}

// Shape reports the template's warm shape.
func (t *Template) Shape() Shape { return t.shape }

// Stamp clones the template into a fresh machine prepared for cfg's
// scenario. cfg must resolve to the template's Shape. Fault schedules
// are not installed here (Run installs them after warm-up, and so does
// Template.Run — same ordering, same op counters).
func (t *Template) Stamp(cfg Config) (*Prepared, error) {
	cfg = cfg.withDefaults()
	if s := cfg.Shape(); s != t.shape {
		return nil, fmt.Errorf("load: stamp shape %+v from template shape %+v", s, t.shape)
	}
	sys, err := t.tpl.Clone()
	if err != nil {
		return nil, err
	}
	return &Prepared{cfg: cfg, sys: sys, heapStart: t.heapStart, heapBytes: t.heapBytes}, nil
}

// Run executes one scenario on a machine stamped from the template —
// the template-backed equivalent of the package-level Run, returning
// byte-identical Metrics at a fraction of the host cost.
func (t *Template) Run(cfg Config) (*Metrics, error) {
	cfg = cfg.withDefaults()
	if cfg.Faults != nil && cfg.Scenario != Prefork {
		return nil, fmt.Errorf("load: scenario %s does not support fault injection (only prefork is failure-tolerant)", cfg.Scenario)
	}
	p, err := t.Stamp(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Faults != nil {
		p.sys.SetFaultSchedule(cfg.Faults)
	}
	m, err := p.Run()
	if err != nil {
		return nil, err
	}
	// The stamped machine is done: recycle its allocations into the
	// template's next stamp (host-side only; Metrics are plain data).
	t.tpl.Release(p.sys)
	p.sys = nil
	return m, nil
}

// Templates is a concurrency-safe cache of one Template per Shape:
// a fleet warms each distinct machine shape once and stamps all N
// machines from it. Deterministic — a template's content is a pure
// function of its Shape, so cache hits and misses cannot change any
// result.
type Templates struct {
	mu sync.Mutex
	m  map[Shape]*Template

	// servers backs Server: the distributed cells' backends and
	// sim/fleet's rolling replacement instances are stamped from
	// here instead of cold-booting each one.
	servers *ServerTemplates
}

// NewTemplates returns an empty cache.
func NewTemplates() *Templates {
	return &Templates{m: map[Shape]*Template{}, servers: NewServerTemplates()}
}

// Get returns the cached template for cfg's Shape, warming one on the
// first request.
func (tc *Templates) Get(cfg Config) (*Template, error) {
	shape := cfg.Shape()
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if t, ok := tc.m[shape]; ok {
		return t, nil
	}
	t, err := NewTemplate(cfg)
	if err != nil {
		return nil, err
	}
	tc.m[shape] = t
	return t, nil
}

// Run executes cfg on a machine stamped from the cached template for
// its Shape (warming it on first use). A nil cache falls back to the
// cold Run path (sim/fleet's ColdBoot).
func (tc *Templates) Run(cfg Config) (*Metrics, error) {
	if tc == nil {
		return Run(cfg)
	}
	if cfg.Scenario.Distributed() {
		// A distributed cell is its own topology of Server machines;
		// it stamps them from the server cache (byte-identical to the
		// cold path) rather than from a scenario template.
		return runNetCell(cfg, tc)
	}
	if cfg.Scenario == Migrate {
		// A migration cell boots its own source/destination pair; no
		// single-machine scenario template matches it.
		return runMigrateCell(cfg.withDefaults())
	}
	t, err := tc.Get(cfg)
	if err != nil {
		return nil, err
	}
	return t.Run(cfg)
}

// Server stamps a ready-to-serve Server for cfg from the cache's
// server templates (see ServerTemplates.Server). A nil cache
// cold-boots through NewServer; the Server's virtual-time behaviour,
// warm-up included, is identical either way.
func (tc *Templates) Server(cfg Config) (*Server, error) {
	if tc == nil {
		return NewServer(cfg)
	}
	return tc.servers.Server(cfg)
}

// ServerShape is the warm shape of a prefork Server: everything
// NewServer's boot-and-warm depends on, pool strategy and size
// included.
type ServerShape struct {
	Via       sim.Strategy
	CPUs      int
	RAMBytes  uint64
	HeapBytes uint64
	HugePages bool
	Workers   int
}

// ServerShape reports cfg's resolved server warm shape (Workers
// resolved to NewServer's 4×CPUs default when zero).
func (cfg Config) ServerShape() ServerShape {
	workers := cfg.Workers
	cfg.Scenario = Prefork
	cfg = cfg.withDefaults()
	if workers <= 0 {
		workers = 4 * cfg.CPUs
	}
	return ServerShape{
		Via:       cfg.Via,
		CPUs:      cfg.CPUs,
		RAMBytes:  cfg.RAMBytes,
		HeapBytes: cfg.HeapBytes,
		HugePages: cfg.HugePages,
		Workers:   workers,
	}
}

// ServerTemplate is a frozen ready-to-serve Server: booted, heap
// dirtied, worker pool pre-created through the configured strategy.
// Stamping reproduces NewServer's post-warm-up state — warm-up cost,
// baselines, and parked pool included — without re-paying the warm-up
// host time per machine.
type ServerTemplate struct {
	shape    ServerShape
	tpl      *sim.Template
	workers  int
	poolPids []int

	heapStart, heapBytes uint64

	warmNanos uint64
	warmPTEs  uint64

	baseProcs          int
	basePages, baseCmt uint64
}

// NewServerTemplate warms one server for cfg's ServerShape and
// freezes it.
func NewServerTemplate(cfg Config) (*ServerTemplate, error) {
	s, err := NewServer(cfg)
	if err != nil {
		return nil, err
	}
	tpl, err := s.sys.Snapshot()
	if err != nil {
		return nil, err
	}
	st := &ServerTemplate{
		shape:     cfg.ServerShape(),
		tpl:       tpl,
		workers:   s.workers,
		heapStart: s.heapStart,
		heapBytes: s.heapBytes,
		warmNanos: s.warmNanos,
		warmPTEs:  s.warmPTEs,
		baseProcs: s.baseProcs,
		basePages: s.basePages,
		baseCmt:   s.baseCmt,
	}
	for _, p := range s.pool {
		st.poolPids = append(st.poolPids, p.Pid())
	}
	return st, nil
}

// Stamp clones a fresh, independent Server from the template,
// re-adopting the parked worker pool by pid and attaching cfg's
// serve-phase knobs (Requests, Window, RequestWorkMiB). cfg must
// resolve to the template's ServerShape.
func (t *ServerTemplate) Stamp(cfg Config) (*Server, error) {
	if s := cfg.ServerShape(); s != t.shape {
		return nil, fmt.Errorf("load: stamp server shape %+v from template shape %+v", s, t.shape)
	}
	cfg.Scenario = Prefork
	cfg = cfg.withDefaults()
	sys, err := t.tpl.Clone()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg: cfg, workers: t.workers, sys: sys, k: sys.Kernel(), tpl: t.tpl,
		heapStart: t.heapStart, heapBytes: t.heapBytes,
		warmNanos: t.warmNanos, warmPTEs: t.warmPTEs,
		baseProcs: t.baseProcs, basePages: t.basePages, baseCmt: t.baseCmt,
	}
	for _, pid := range t.poolPids {
		p, err := sys.FindProcess(pid)
		if err != nil {
			return nil, fmt.Errorf("load: re-adopt pool worker: %w", err)
		}
		s.pool = append(s.pool, p)
	}
	s.observe()
	return s, nil
}

// ServerTemplates is a concurrency-safe cache of one ServerTemplate
// per ServerShape — sim/cluster warms each pool's machine shape once
// and stamps every scale-out boot from it, so scale-out host cost
// stops being Θ(heap).
type ServerTemplates struct {
	mu sync.Mutex
	m  map[ServerShape]*ServerTemplate
}

// NewServerTemplates returns an empty cache.
func NewServerTemplates() *ServerTemplates {
	return &ServerTemplates{m: map[ServerShape]*ServerTemplate{}}
}

// Server stamps a ready-to-serve Server for cfg from the cached
// template for its ServerShape (warming one on first use). A nil
// cache falls back to a cold NewServer boot.
func (tc *ServerTemplates) Server(cfg Config) (*Server, error) {
	if tc == nil {
		return NewServer(cfg)
	}
	shape := cfg.ServerShape()
	tc.mu.Lock()
	t, ok := tc.m[shape]
	if !ok {
		var err error
		t, err = NewServerTemplate(cfg)
		if err != nil {
			tc.mu.Unlock()
			return nil, err
		}
		tc.m[shape] = t
	}
	tc.mu.Unlock()
	return t.Stamp(cfg)
}
