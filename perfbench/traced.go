package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"repro/sim"
	"repro/sim/load"
)

// timingMetrics maps each per-layer timing to the span it summarizes.
// The unit is the metric name's suffix. Each is reported as .p50,
// .p99 and .n.
var timingMetrics = []struct{ metric, span string }{
	{"pagetable.clone_us", "pagetable.clone"},
	{"pagetable.destroy_us", "pagetable.destroy"},
	{"mem.ref_ns", "mem.ref"},
	{"mem.copy_frame_ns", "mem.copy_frame"},
	{"addrspace.clone_us", "addrspace.clone"},
	{"addrspace.destroy_us", "addrspace.destroy"},
	{"addrspace.cow_fault_ns", "addrspace.cow_fault"},
	{"addrspace.zero_fault_ns", "addrspace.zero_fault"},
	{"addrspace.capture_ms", "addrspace.capture"},
	{"kernel.create_us", "kernel.create"},
	{"kernel.destroy_us", "kernel.destroy"},
	{"kernel.checkpoint_ms", "kernel.checkpoint"},
	{"kernel.restore_ms", "kernel.restore"},
	{"sim.boot_ms", "sim.boot"},
	{"sim.snapshot_ms", "sim.snapshot"},
	{"sim.stamp_us", "sim.stamp"},
	{"load.warm_ms", "load.warm"},
	{"load.run_ms", "load.run"},
	{"load.migrate_ms", "load.migrate"},
	{"load.serve_batch_us", "load.serve_batch"},
	{"fleet.machine_ms", "machine"},
	{"net.send_ns", "net.send"},
	{"net.deliver_ns", "net.deliver"},
	{"cluster.run_ms", "cluster.run"},
}

// unitScale converts nanoseconds to the unit a metric name ends in.
func unitScale(metric string) (string, float64) {
	switch {
	case strings.HasSuffix(metric, "_ms"):
		return "ms", 1e6
	case strings.HasSuffix(metric, "_us"):
		return "us", 1e3
	}
	return "ns", 1
}

// traceReport is the traced pass's detail, written to the results
// file: every span, and each span name's summary.
type traceReport struct {
	TimedHostSeconds  float64           `json:"timed_host_s"`
	ReplayHostSeconds float64           `json:"replay_host_s"`
	Timings           map[string]timing `json:"timings"`
	Spans             []span            `json:"spans"`
}

// setupSpanReps is how many times the traced pass records set-up spans.
const setupSpanReps = 51

// tracedPass gives the per-layer metrics. It records set-up spans and
// a traced replay of the batch, then runs one batch with tracing off
// (its exact counters, Go runtime figures and the replay's overhead
// base), then the layer ladder.
func tracedPass(w *workload, v, workers, seconds int, ref []byte) (*result, *traceReport, error) {
	res := &result{Correct: true}
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		res.Correct = false
	}

	tr := newTracer()
	for i := 0; i < setupSpanReps; i++ {
		if err := setupSpans(tr, w, v, workers); err != nil {
			return nil, nil, err
		}
	}
	runtime.GC()
	start := time.Now()
	tot, err := replay(tr, w, v, workers, ref)
	replayHost := time.Since(start)
	if err != nil {
		fail(fmt.Errorf("replay: %w", err))
	}
	runtime.GC()
	rt0 := readRuntime()
	o, err := w.runBatch(v, workers)
	if err != nil {
		return nil, nil, err
	}
	rt1 := readRuntime()
	if err := check(w, o, ref); err != nil {
		fail(err)
	}
	res.Attempted, res.Failed = o.counts.Requests+o.counts.Failed, o.counts.Failed
	if !res.Correct {
		// A wrong virtual output fails every request of the run.
		res.Failed = res.Attempted
	}
	// The ladder runs at the workload's first shape: for surge, the
	// fork pool's.
	lcfg := w.setupShapes(v, workers)[0]
	entries, err := ladder(tr, lcfg, w.surge != nil, time.Duration(seconds)*40*time.Millisecond)
	if err != nil {
		return nil, nil, fmt.Errorf("ladder: %w", err)
	}

	tms := tr.timings()
	m := map[string]metric{}
	for _, tm := range timingMetrics {
		unit, scale := unitScale(tm.metric)
		t := tms[tm.span]
		m[tm.metric+".p50"] = metric{t.P50 / scale, unit}
		m[tm.metric+".p99"] = metric{t.Tail / scale, unit}
		m[tm.metric+".n"] = metric{float64(t.N), "count"}
	}
	p50 := func(span string) float64 { return tms[span].P50 }
	pt := p50("pagetable.clone") + p50("pagetable.destroy")
	as := p50("addrspace.clone") + p50("addrspace.destroy")
	kern := p50("kernel.create") + p50("kernel.destroy")
	if lcfg.Via == sim.ForkExec {
		// Only fork+exec's create goes through Space.CloneCOW.
		kern -= as
	}
	m["pagetable.self_us"] = metric{(pt - float64(entries)*p50("mem.ref")) / 1e3, "us"}
	m["addrspace.self_us"] = metric{(as - pt) / 1e3, "us"}
	m["kernel.self_us"] = metric{kern / 1e3, "us"}

	c := o.counts
	for name, n := range map[string]uint64{
		"pagetable.pte_copies":    c.PTECopies,
		"addrspace.page_faults":   c.PageFaults,
		"addrspace.page_copies":   c.PageCopies,
		"kernel.creations":        c.Creations,
		"kernel.syscalls":         c.Syscalls,
		"kernel.context_switches": c.ContextSwitches,
		"fleet.machines":          c.Machines,
		"net.packets":             tot.netPackets,
		"migrate.pages_sent":      c.MigratePagesSent,
		"migrate.rounds":          tot.migrateRounds,
		"cluster.scale_outs":      c.ScaleOuts,
	} {
		m[name] = metric{float64(n), "count"}
	}
	m["load.host_ns_per_creation"] = metric{float64(o.host.Nanoseconds()) / float64(c.Creations), "ns"}
	m["go.alloc_mb"] = metric{(rt1.allocBytes - rt0.allocBytes) / float64(mib), "MiB"}
	m["go.gc_cycles"] = metric{rt1.gcCycles - rt0.gcCycles, "count"}
	m["go.gc_cpu_frac"] = metric{(rt1.gcCPU - rt0.gcCPU) / (rt1.totalCPU - rt0.totalCPU), "1"}
	m["trace.overhead_frac"] = metric{replayHost.Seconds()/o.host.Seconds() - 1, "1"}
	res.Metrics = m

	tr.mu.Lock()
	defer tr.mu.Unlock()
	return res, &traceReport{
		TimedHostSeconds:  o.host.Seconds(),
		ReplayHostSeconds: replayHost.Seconds(),
		Timings:           tms,
		Spans:             tr.spans,
	}, nil
}

// setupSpans boots, warms and snapshots one machine of each of the
// workload's shapes with the steps load.NewTemplate and
// load.NewServer take, one span per step.
func setupSpans(tr *tracer, w *workload, v, workers int) error {
	for _, cfg := range w.setupShapes(v, workers) {
		shape := cfg.Shape()
		userland := []string{"true", "echo", "cat", "hog", "smpspin"}
		if w.fleet == nil {
			userland = []string{"true", "hog"}
		}
		s := tr.begin("setup", 0)
		id := tr.begin("sim.boot", s)
		sys, err := sim.NewSystem(sim.WithRAM(shape.RAMBytes), sim.WithCPUs(shape.CPUs), sim.WithUserland(userland...))
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("load.warm", s)
		if _, err := load.Prepare(sys, cfg); err != nil {
			return err
		}
		if w.fleet == nil {
			// A server also pre-creates its parked worker pool.
			for i := 0; i < cfg.Workers; i++ {
				if _, err := sys.Command("true").Via(cfg.Via).Create(); err != nil {
					return err
				}
			}
		}
		tr.end(id)
		id = tr.begin("sim.snapshot", s)
		_, err = sys.Snapshot()
		tr.end(id)
		tr.end(s)
		if err != nil {
			return err
		}
	}
	return nil
}

// runtimeStats are the Go runtime's cumulative allocation, GC cycle
// and CPU counters.
type runtimeStats struct {
	allocBytes, gcCycles, gcCPU, totalCPU float64
}

func readRuntime() runtimeStats {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return runtimeStats{val(samples[0]), val(samples[1]), val(samples[2]), val(samples[3])}
}
