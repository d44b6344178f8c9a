package fleet

import (
	"repro/sim/load"
)

// runRestartedMachine is the second half of a rolling restart: the
// machine's replacement instance, a load.Server. Booting it repays the
// warm-up tax — dirty the server heap, pre-create the worker pool
// through the configured strategy — on the instance's own virtual
// clock: under fork every pool worker duplicates the freshly dirtied
// heap's page tables (Θ(heap) each); under spawn or the builder the
// pool comes up at a flat cost. Then it serves its share of traffic
// (Server.Run, bookkept identically to the warm phase) and drains.
//
// The instance is stamped from tc's server templates (nil = cold
// boot). A stamp reproduces the warm-up's virtual cost and page-table
// bill exactly, so the restart tax recorded in mm is the same either
// way. mm gets both phases and the restart tax; the returned drain
// books are what the leak invariant checks.
func runRestartedMachine(ms machineSpec, tc *load.Templates, mm *MachineMetrics, warm *load.Metrics) (*load.DrainStats, error) {
	cfg := ms.loadConfig()
	cfg.Scenario = load.Prefork // the wave serves prefork-style traffic
	cfg.Workers = ms.Workers
	srv, err := tc.Server(cfg)
	if err != nil {
		return nil, err
	}
	serve, err := srv.Run()
	// The wave moves on: this instance's pool is torn down by the
	// *next* restart in a real deploy; here it closes the books (even
	// after a failed run, so the machine is recycled either way).
	drain, derr := srv.Drain()
	if err == nil {
		err = derr
	}
	if err != nil {
		return nil, err
	}
	mm.Phases = []*load.Metrics{warm, serve}
	mm.RestartNanos = srv.WarmupNanos()
	mm.RestartPTECopies = srv.WarmupPTECopies()
	return &drain, nil
}
