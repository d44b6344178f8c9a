// Command forkbench regenerates the evaluation of "A fork() in the
// road" (HotOS'19) on the simulator: Figure 1, the semantics matrix
// (Table 1), and the E3–E10 claim experiments. README "Regenerating
// the paper's evaluation" walks through the commands.
//
// Usage:
//
//	forkbench [flags] <experiment>
//	forkbench load [load flags]
//	forkbench fleet [fleet flags]
//	forkbench cluster [cluster flags]
//	forkbench metrics [metrics flags]
//	forkbench hostbench [hostbench flags]
//	forkbench trace [trace flags] [prog arg...]
//	forkbench diff [-summary] <old.json> <new.json>
//
//	experiments: fig1 table1 cowtax hugepages overcommit compose scale
//	             ablations strategies server cpusweep fleetclaim chaos
//	             scaleout clonebench netclaim migrate all
//
//	-max SIZE     largest parent for sweeps (default 1GiB for fig1)
//	-reps N       repetitions per fig1 point (default 5)
//	-eager        include the 1970s eager-copy fork line in fig1
//
// "strategies" demonstrates the public sim API: one workload launched
// through every process-creation strategy the paper compares
// (Cmd.Via), verifying identical output and reporting each strategy's
// creation latency from a dirty parent. "cpusweep" is the SMP
// experiment: fork's snapshot tax versus core count (E9).
// "fleetclaim" is E10: the rolling-restart wave over growing fleet
// sizes — each replacement machine repays its warm-up tax, Θ(heap)
// page-table duplication per pool worker under fork. "chaos" is E11:
// the prefork server under identical deterministic memory-pressure
// fault waves (sim/fault), fork vs spawn — fork's Θ(heap) commit
// reservations are what the waves refuse, so the fork server drops
// traffic the spawn server serves (§4.6's overcommit argument made
// measurable). "scaleout" is E12: identical fork and spawn node pools
// racing the same traffic surge through sim/cluster's autoscaler —
// scale-out latency is Θ(heap) under fork, flat under spawn, and the
// gap is missed surge SLOs. "clonebench" is E13, the only host-timed
// experiment: cold boot+warm per machine vs snapshot-once-then-clone
// (sim.System.Snapshot / sim.Template.Clone) over a heap ladder, plus
// the measured break-even heap size below which templating stops
// paying — the harness's own answer to Θ(heap) process creation.
// "netclaim" is E15, the re-warm tax on the wire: the netlb cell
// (sim/load's L7 balancer) restarts one backend mid-run; the
// replacement's worker-pool warm-up is Θ(heap) under fork and flat
// under spawn, and the client retry timeout sits between the two, so
// fork turns the restart into a retry storm the spawn pool absorbs.
// "migrate" is E16, live migration: checkpoint a running worker,
// pre-copy its pages over sim/net while it keeps dirtying them, then
// stop-and-copy the residue — downtime grows with the dirty heap for
// the fork family, stays flat for spawn, and a mid-vfork borrower is
// refused cleanly because it has no coherent address space to ship.
//
// The trace subcommand runs one command with the structured event
// trace enabled and renders it (sim.WithTrace): syscall enter/exit
// with errno, scheduler dispatches, TLB-shootdown rounds, process
// lifecycle, and — with -seed — injected faults:
//
//	forkbench trace [-via STRATEGY] [-heap SIZE] [-cpus N]
//	                [-seed N] [-o FILE] [prog arg...]
//
// Its output is a pure function of its flags; the golden-trace tests
// in sim freeze one trace per creation strategy the same way.
//
// The load subcommand drives the sim/load workload scenarios:
//
//	forkbench load [-scenario prefork|pipeline|checkpoint|forkstorm|
//	                          smpserver|buildfarm|netlb|kvshard|migrate|all]
//	               [-via spawn|fork|vfork|builder|emufork|eager]
//	               [-n REQUESTS] [-workers N] [-nodes N] [-heap SIZE]
//	               [-ram SIZE] [-cpus N] [-huge] [-json FILE]
//
// Each run is deterministic; -json writes every run's metrics as a
// JSON array, the format of the repo's BENCH_*.json trajectory files
// (regenerate with `forkbench load -sweep -json BENCH_PRn.json`).
// With -sweep, -cpus pins the whole baseline matrix to one CPU count
// (the CI job runs it at 1 and 4); by default the matrix includes its
// own 1/2/4/8-CPU sweep of the SMP scenarios. The sweep fans its
// configurations out across host cores through sim/fleet — results
// and JSON are byte-identical to a serial run (the CI determinism
// gate holds the sweep to that at GOMAXPROCS 1 vs 4); wall-clock and
// worker count are reported on stderr.
//
// The fleet subcommand runs many machines at once (sim/fleet):
//
//	forkbench fleet [-machines N]
//	                [-scenario uniform|rolling|rebalance|hetero|surge|chaos]
//	                [-load SCENARIO] [-via STRATEGY] [-cpus N] [-n REQUESTS]
//	                [-workers N] [-surge K] [-seed N] [-heap SIZE]
//	                [-parallel N] [-shards N] [-permachine] [-json FILE]
//	                [-cpuprofile FILE] [-memprofile FILE]
//
// Its stdout is byte-identical at every GOMAXPROCS setting — host
// wall-clock, worker/shard counts, and peak RSS go to stderr. Machines
// stream into a constant-memory aggregate as they finish; -permachine
// keeps the per-machine breakdown (and its O(machines) report memory).
// -shards fans contiguous machine-id ranges across worker OS processes
// (re-invocations of this binary) whose partial aggregates merge in
// shard order, byte-identical to the in-process run — the CI sharded
// determinism gate compares -shards 1 vs 4. The chaos scenario derives
// each machine's fault schedule from (-seed, machine id); the CI chaos
// determinism gate byte-compares its JSON at GOMAXPROCS 1 vs 4.
//
// The hostbench subcommand is E14, the host-time trajectory: how fast
// this computer simulates fleets (template stamp rate fresh vs into a
// recycled shell, machines and simulated requests per host second over
// a fleet-size ladder, peak RSS):
//
//	forkbench hostbench [-sizes N,N,...] [-n REQUESTS] [-heap SIZE]
//	                    [-shards N] [-stamps N] [-json FILE]
//
// Like clonebench it is host-timed — numbers vary run to run — and
// -json writes the BENCH_HOST.json trajectory format that CI publishes
// as an informational artifact (report, don't fail).
//
// The cluster subcommand runs the autoscaling orchestrator
// (sim/cluster): named node pools scaled by a virtual-time reconcile
// loop against a traffic plan:
//
//	forkbench cluster [-scenario surge|zoneoutage|heteropools|netsplit]
//	                  [-heap SIZE] [-parallel N] [-json FILE]
//
// Its stdout — pool table plus reconcile trace — is byte-identical at
// every GOMAXPROCS; the CI cluster determinism gate byte-compares the
// zoneoutage JSON at GOMAXPROCS 1 vs 4. The netsplit scenario severs a
// zone's links (fault.ZonePartition) without killing its machines: the
// balancer's reachability probe routes around the partition and heals
// when it lifts.
//
// The metrics subcommand is the retina-style metrics plane: one
// deterministic run rendered as Prometheus text-format counters —
// per-machine request and packet/flow counters for a fleet of
// distributed cells (default), per-pool/zone counters for a cluster
// scenario (-cluster), and the structured trace's event-kind counters
// from one traced command (-trace):
//
//	forkbench metrics [-scenario netlb|kvshard|...] [-via STRATEGY]
//	                  [-machines N] [-n REQUESTS] [-heap SIZE] [-seed N]
//	                  [-cluster SCENARIO] [-trace] [-o FILE]
//
// Its output is a pure function of the flags (sim/metrics sorts
// families and samples), so the CI metrics golden gate byte-compares
// checked-in invocations the way the golden traces are frozen.
//
// The diff subcommand is the bench-drift gate: it compares two sweep
// JSON files metric by metric and fails on any difference, so silent
// cost-model changes fail CI instead of rotting the BENCH_*.json
// trajectory. -summary prints one line per differing run (the changed
// metric names only) for readable CI logs.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/sim"
	"repro/sim/fleet"
	"repro/sim/load"
)

func parseSize(s string) (uint64, error) {
	s = strings.TrimSpace(s)
	mult := uint64(1)
	switch {
	case strings.HasSuffix(s, "GiB"), strings.HasSuffix(s, "G"):
		mult = experiments.GiB
		s = strings.TrimSuffix(strings.TrimSuffix(s, "GiB"), "G")
	case strings.HasSuffix(s, "MiB"), strings.HasSuffix(s, "M"):
		mult = experiments.MiB
		s = strings.TrimSuffix(strings.TrimSuffix(s, "MiB"), "M")
	case strings.HasSuffix(s, "KiB"), strings.HasSuffix(s, "K"):
		mult = experiments.KiB
		s = strings.TrimSuffix(strings.TrimSuffix(s, "KiB"), "K")
	}
	n, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}

func main() {
	// A `fleet -shards N` parent re-invokes this binary once per
	// shard; a worker invocation runs its machine range and exits
	// here, before flag parsing.
	fleet.MaybeShardWorker()
	maxFlag := flag.String("max", "1GiB", "largest parent size for sweeps")
	reps := flag.Int("reps", 5, "repetitions per fig1 point")
	eager := flag.Bool("eager", false, "include eager-copy fork line in fig1")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: forkbench [flags] fig1|table1|cowtax|hugepages|overcommit|compose|scale|ablations|strategies|server|cpusweep|fleetclaim|chaos|scaleout|clonebench|netclaim|migrate|all\n")
		fmt.Fprintf(os.Stderr, "       forkbench load [load flags]        (see forkbench load -h)\n")
		fmt.Fprintf(os.Stderr, "       forkbench fleet [fleet flags]      (see forkbench fleet -h)\n")
		fmt.Fprintf(os.Stderr, "       forkbench cluster [cluster flags]  (see forkbench cluster -h)\n")
		fmt.Fprintf(os.Stderr, "       forkbench metrics [metrics flags]  (see forkbench metrics -h)\n")
		fmt.Fprintf(os.Stderr, "       forkbench hostbench [bench flags]  (see forkbench hostbench -h)\n")
		fmt.Fprintf(os.Stderr, "       forkbench trace [trace flags]      (see forkbench trace -h)\n")
		fmt.Fprintf(os.Stderr, "       forkbench diff [-summary] <old.json> <new.json>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	switch flag.Arg(0) {
	case "load":
		if err := runLoad(flag.Args()[1:]); err != nil {
			fatal(err)
		}
		return
	case "fleet":
		if err := runFleet(flag.Args()[1:]); err != nil {
			fatal(err)
		}
		return
	case "cluster":
		if err := runCluster(flag.Args()[1:]); err != nil {
			fatal(err)
		}
		return
	case "metrics":
		if err := runMetrics(flag.Args()[1:]); err != nil {
			fatal(err)
		}
		return
	case "hostbench":
		if err := runHostbench(flag.Args()[1:]); err != nil {
			fatal(err)
		}
		return
	case "trace":
		if err := runTrace(flag.Args()[1:]); err != nil {
			fatal(err)
		}
		return
	case "diff":
		if err := runDiff(flag.Args()[1:]); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	maxBytes, err := parseSize(*maxFlag)
	if err != nil {
		fatal(err)
	}

	what := flag.Arg(0)
	runAll := what == "all"
	ran := false

	if runAll || what == "fig1" {
		ran = true
		res, err := experiments.Figure1(experiments.Fig1Config{
			MaxBytes: maxBytes, Reps: *reps, IncludeEager: *eager,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Render())
		if cx, ok := res.Crossover(); ok {
			fmt.Printf("spawn overtakes fork+exec at parent size %s\n\n", experiments.HumanBytes(cx))
		}
	}
	if runAll || what == "table1" {
		ran = true
		res, err := experiments.Table1()
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Render())
	}
	if runAll || what == "cowtax" {
		ran = true
		res, err := experiments.CowTax(0)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Render())
	}
	if runAll || what == "hugepages" {
		ran = true
		hmax := maxBytes
		if hmax > 512*experiments.MiB {
			hmax = 512 * experiments.MiB
		}
		res, err := experiments.HugePages(0, hmax)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Render())
	}
	if runAll || what == "overcommit" {
		ran = true
		res, err := experiments.Overcommit(0)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Render())
	}
	if runAll || what == "compose" {
		ran = true
		res, err := experiments.Compose()
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Render())
	}
	if runAll || what == "scale" {
		ran = true
		smax := maxBytes
		if smax > 256*experiments.MiB {
			smax = 256 * experiments.MiB
		}
		res, err := experiments.Scale(0, smax)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Render())
	}
	if runAll || what == "ablations" {
		ran = true
		amax := maxBytes
		if amax > 128*experiments.MiB {
			amax = 128 * experiments.MiB
		}
		res, err := experiments.Ablations(amax)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Render())
	}
	if runAll || what == "server" {
		ran = true
		smax := maxBytes
		if smax > 256*experiments.MiB {
			smax = 256 * experiments.MiB
		}
		res, err := experiments.ServerClaim(smax, 0)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Render())
	}
	if runAll || what == "cpusweep" {
		ran = true
		cmax := maxBytes
		if cmax > 64*experiments.MiB {
			cmax = 64 * experiments.MiB
		}
		res, err := experiments.CPUSweep(experiments.CPUSweepConfig{HeapBytes: cmax})
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Render())
	}
	if runAll || what == "fleetclaim" {
		ran = true
		fmax := maxBytes
		if fmax > 64*experiments.MiB {
			fmax = 64 * experiments.MiB
		}
		res, err := experiments.FleetClaim(experiments.FleetClaimConfig{HeapBytes: fmax})
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Render())
	}
	if runAll || what == "chaos" {
		ran = true
		cmax := maxBytes
		if cmax > 64*experiments.MiB {
			cmax = 64 * experiments.MiB
		}
		res, err := experiments.ChaosClaim(experiments.ChaosClaimConfig{HeapBytes: cmax})
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Render())
	}
	if runAll || what == "scaleout" {
		ran = true
		smax := maxBytes
		if smax > 64*experiments.MiB {
			smax = 64 * experiments.MiB
		}
		var ladder []uint64
		for _, h := range []uint64{4 * experiments.MiB, 16 * experiments.MiB, 64 * experiments.MiB} {
			if h <= smax {
				ladder = append(ladder, h)
			}
		}
		if len(ladder) == 0 {
			ladder = []uint64{smax}
		}
		res, err := experiments.ScaleOutClaim(experiments.ScaleOutConfig{HeapSizes: ladder})
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Render())
	}
	if runAll || what == "netclaim" {
		ran = true
		nmax := maxBytes
		if nmax > 64*experiments.MiB {
			nmax = 64 * experiments.MiB
		}
		res, err := experiments.NetClaim(experiments.NetClaimConfig{HeapBytes: nmax})
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Render())
	}
	if runAll || what == "migrate" {
		ran = true
		mmax := maxBytes
		if mmax > 64*experiments.MiB {
			mmax = 64 * experiments.MiB
		}
		var ladder []uint64
		for _, h := range []uint64{4 * experiments.MiB, 16 * experiments.MiB, 64 * experiments.MiB} {
			if h <= mmax {
				ladder = append(ladder, h)
			}
		}
		res, err := experiments.MigrateClaim(experiments.MigrateConfig{HeapSizes: ladder})
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Render())
	}
	if runAll || what == "clonebench" {
		ran = true
		cmax := maxBytes
		if cmax > 64*experiments.MiB {
			cmax = 64 * experiments.MiB
		}
		var ladder []uint64
		for _, h := range []uint64{4 * experiments.MiB, 16 * experiments.MiB, 64 * experiments.MiB} {
			if h <= cmax {
				ladder = append(ladder, h)
			}
		}
		if len(ladder) == 0 {
			ladder = []uint64{cmax}
		}
		res, err := experiments.CloneClaim(experiments.CloneConfig{HeapSizes: ladder})
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Render())
	}
	if runAll || what == "strategies" {
		ran = true
		if err := strategies(maxBytes); err != nil {
			fatal(err)
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

// strategies runs one workload through all five creation APIs via the
// public sim package and reports creation latency from a dirty parent
// — Figure 1's point made interactively.
func strategies(parentBytes uint64) error {
	if parentBytes > 64*experiments.MiB {
		parentBytes = 64 * experiments.MiB
	}
	sys, err := sim.NewSystem(sim.WithRAM(4 << 30))
	if err != nil {
		return err
	}
	if err := sys.DirtyHost(parentBytes, false); err != nil {
		return err
	}
	fmt.Printf("one workload, five creation APIs (parent dirties %s):\n\n",
		experiments.HumanBytes(parentBytes))
	fmt.Printf("%-22s %-14s %s\n", "strategy", "creation", "output")
	var reference string
	for _, st := range sim.Strategies() {
		var buf bytes.Buffer
		cmd := sys.Command("echo", "hello", "road").Via(st)
		cmd.Stdout = &buf
		p, err := cmd.Create()
		if err != nil {
			return fmt.Errorf("%v: %w", st, err)
		}
		if err := p.Start(); err != nil {
			return fmt.Errorf("%v: %w", st, err)
		}
		if err := cmd.Wait(); err != nil {
			return fmt.Errorf("%v: %w", st, err)
		}
		out := strings.TrimSuffix(buf.String(), "\n")
		fmt.Printf("%-22v %-14v %q\n", st, p.CreationCost(), out)
		if reference == "" {
			reference = out
		} else if out != reference {
			return fmt.Errorf("%v produced %q, others %q", st, out, reference)
		}
	}
	fmt.Printf("\nidentical output under every strategy; only the creation cost differs.\n\n")
	return nil
}

// runLoad is the `forkbench load` subcommand: it parses the load
// flags, runs the selected scenario(s) through sim/load, prints each
// run's metrics, and optionally records them all as a JSON array.
func runLoad(args []string) error {
	fs := flag.NewFlagSet("forkbench load", flag.ExitOnError)
	scenario := fs.String("scenario", "prefork", "prefork|pipeline|checkpoint|forkstorm|smpserver|buildfarm|netlb|kvshard|migrate|all")
	via := fs.String("via", "spawn", "spawn|fork|vfork|builder|emufork|eager")
	n := fs.Int("n", 0, "requests per scenario (0 = scenario default)")
	workers := fs.Int("workers", 0, "pipeline depth / storm burst size (0 = default)")
	nodes := fs.Int("nodes", 0, "distributed backend/shard count for netlb|kvshard (0 = default)")
	heap := fs.String("heap", "64MiB", "server heap size")
	ram := fs.String("ram", "0", "machine RAM (0 = 4x heap)")
	cpus := fs.Int("cpus", 0, "simulated CPU count (0 = 1; with -sweep, pins the matrix to this count)")
	huge := fs.Bool("huge", false, "back the server heap with 2MiB pages")
	jsonPath := fs.String("json", "", "write all runs' metrics to FILE as a JSON array")
	sweep := fs.Bool("sweep", false, "run the standard baseline matrix (ignores the other load flags except -cpus)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("load: unexpected argument %q", fs.Arg(0))
	}

	var configs []load.Config
	if *sweep {
		configs = sweepConfigs(*cpus)
	} else {
		st, err := sim.ParseStrategy(*via)
		if err != nil {
			return err
		}
		heapBytes, err := parseSize(*heap)
		if err != nil {
			return err
		}
		ramBytes, err := parseSize(*ram)
		if err != nil {
			return err
		}
		var scenarios []load.Scenario
		if *scenario == "all" {
			scenarios = load.Scenarios()
		} else {
			s, err := load.ParseScenario(*scenario)
			if err != nil {
				return err
			}
			scenarios = []load.Scenario{s}
		}
		for _, s := range scenarios {
			configs = append(configs, load.Config{
				Scenario:  s,
				Via:       st,
				CPUs:      *cpus,
				Requests:  *n,
				Workers:   *workers,
				Nodes:     *nodes,
				HeapBytes: heapBytes,
				RAMBytes:  ramBytes,
				HugePages: *huge,
			})
		}
	}

	// Every config is an independent machine: fan them out across
	// host cores. fleet.RunAll position-merges, so stdout and the
	// JSON are byte-identical to a serial run — the CI determinism
	// gate diffs the sweep JSON at GOMAXPROCS 1 vs 4 to hold it to
	// that. Host wall-clock goes to stderr.
	start := time.Now()
	hostWorkers := fleet.PoolSize(0, len(configs))
	all, err := fleet.RunAll(hostWorkers, configs)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "load: %d run(s) on %d host worker(s) in %s (GOMAXPROCS %d)\n",
		len(all), hostWorkers, time.Since(start).Round(time.Microsecond), runtime.GOMAXPROCS(0))
	for _, m := range all {
		fmt.Println(m.Render())
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %d run(s) to %s\n", len(all), *jsonPath)
	}
	return nil
}

// sweepConfigs is the standard baseline matrix behind
// `forkbench load -sweep -json BENCH_PRn.json`: the prefork §5 cells
// (fork vs spawn vs builder as the server heap grows), one
// representative configuration of each other scenario, and the SMP
// matrix — smpserver and buildfarm swept over 1/2/4/8 CPUs, where
// fork's per-snapshot shootdown tax grows with the core count and the
// fork-less paths stay flat. Deterministic, so the emitted JSON is
// reproducible bit for bit. pinCPUs > 0 pins every config to one CPU
// count (the CI matrix runs the sweep at 1 and at 4).
func sweepConfigs(pinCPUs int) []load.Config {
	var out []load.Config
	for _, heap := range []uint64{64 * experiments.MiB, 256 * experiments.MiB} {
		for _, via := range []sim.Strategy{sim.ForkExec, sim.Spawn, sim.Builder} {
			out = append(out, load.Config{
				Scenario: load.Prefork, Via: via, Requests: 64, HeapBytes: heap,
			})
		}
	}
	for _, via := range []sim.Strategy{sim.ForkExec, sim.Spawn} {
		out = append(out, load.Config{
			Scenario: load.Pipeline, Via: via, Requests: 32, Workers: 3,
			HeapBytes: 64 * experiments.MiB,
		})
	}
	for _, via := range []sim.Strategy{sim.ForkExec, sim.EagerForkExec} {
		out = append(out, load.Config{
			Scenario: load.Checkpoint, Via: via, Requests: 16,
			HeapBytes: 64 * experiments.MiB,
		})
	}
	for _, via := range []sim.Strategy{sim.ForkExec, sim.Spawn} {
		out = append(out, load.Config{
			Scenario: load.ForkStorm, Via: via, Requests: 4, Workers: 256,
			HeapBytes: 64 * experiments.MiB,
		})
	}
	smpCounts := []int{1, 2, 4, 8}
	if pinCPUs > 0 {
		smpCounts = []int{pinCPUs}
	}
	for _, cpus := range smpCounts {
		for _, via := range []sim.Strategy{sim.ForkExec, sim.Spawn} {
			out = append(out, load.Config{
				Scenario: load.SMPServer, Via: via, CPUs: cpus,
				Requests: 8, HeapBytes: 64 * experiments.MiB,
			})
		}
		for _, via := range []sim.Strategy{sim.ForkExec, sim.Spawn} {
			out = append(out, load.Config{
				Scenario: load.BuildFarm, Via: via, CPUs: cpus,
				Requests: 16 * cpus, HeapBytes: 64 * experiments.MiB,
			})
		}
	}
	if pinCPUs > 0 {
		for i := range out {
			out[i].CPUs = pinCPUs
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "forkbench:", err)
	os.Exit(1)
}
