package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/sim/cluster"
	"repro/sim/fleet"
	"repro/sim/load"
)

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
		err  bool
	}{
		{"1GiB", 1 << 30, false},
		{"2G", 2 << 30, false},
		{"512MiB", 512 << 20, false},
		{"64M", 64 << 20, false},
		{"4KiB", 4 << 10, false},
		{"128K", 128 << 10, false},
		{"4096", 4096, false},
		{" 8MiB ", 8 << 20, false},
		{"", 0, true},
		{"xMiB", 0, true},
		{"GiB", 0, true},
	}
	for _, c := range cases {
		got, err := parseSize(c.in)
		if c.err {
			if err == nil {
				t.Errorf("parseSize(%q) = %d, want error", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseSize(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("parseSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestRunLoadWritesJSON drives the load subcommand end to end at a
// tiny scale and checks the emitted JSON parses back into metrics.
func TestRunLoadWritesJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	err := runLoad([]string{
		"-scenario", "prefork", "-via", "spawn", "-n", "4", "-heap", "1MiB", "-json", path,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ms []*load.Metrics
	if err := json.Unmarshal(data, &ms); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(ms) != 1 || ms[0].Requests != 4 || ms[0].Scenario != "prefork" {
		t.Errorf("unexpected metrics: %+v", ms)
	}
}

// TestRunLoadRejectsJunk pins the error paths.
func TestRunLoadRejectsJunk(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "bogus"},
		{"-via", "bogus"},
		{"-heap", "xMiB"},
		{"extra-positional"},
	} {
		if err := runLoad(args); err == nil {
			t.Errorf("runLoad(%v) succeeded, want error", args)
		}
	}
}

// TestRunFleetWritesJSON drives the fleet subcommand end to end at a
// tiny scale and checks the emitted report parses back.
func TestRunFleetWritesJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.json")
	err := runFleet([]string{
		"-machines", "2", "-scenario", "rolling", "-via", "fork",
		"-n", "3", "-heap", "4MiB", "-permachine", "-json", path,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res fleet.Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(res.Machines) != 2 || res.Scenario != "rolling" || res.Aggregate.RestartNanos == 0 {
		t.Errorf("unexpected fleet report: %+v", res)
	}
}

// TestRunFleetRejectsJunk pins the fleet flag error paths.
func TestRunFleetRejectsJunk(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "bogus"},
		{"-load", "bogus"},
		{"-via", "bogus"},
		{"-heap", "xMiB"},
		{"-machines", "0"},
		{"extra-positional"},
		// Chaos needs the failure-tolerant prefork driver; the
		// report must never claim a load that did not run.
		{"-scenario", "chaos", "-load", "buildfarm"},
	} {
		if err := runFleet(args); err == nil {
			t.Errorf("runFleet(%v) succeeded, want error", args)
		}
	}
}

// TestRunDiff drives the bench-drift gate: identical sweeps pass,
// metric drift and missing runs fail with the difference named.
func TestRunDiff(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ms []*load.Metrics) string {
		t.Helper()
		data, err := json.MarshalIndent(ms, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := []*load.Metrics{
		{Scenario: "prefork", Strategy: "fork+exec", HeapBytes: 1 << 20, NumCPUs: 1, Requests: 4, VirtualNanos: 1000, PTECopies: 50},
		{Scenario: "prefork", Strategy: "posix_spawn", HeapBytes: 1 << 20, NumCPUs: 1, Requests: 4, VirtualNanos: 100},
	}
	old := write("old.json", base)

	if err := runDiff([]string{old, old}); err != nil {
		t.Errorf("identical files reported drift: %v", err)
	}

	drifted := []*load.Metrics{
		{Scenario: "prefork", Strategy: "fork+exec", HeapBytes: 1 << 20, NumCPUs: 1, Requests: 4, VirtualNanos: 1001, PTECopies: 50},
		{Scenario: "prefork", Strategy: "posix_spawn", HeapBytes: 1 << 20, NumCPUs: 1, Requests: 4, VirtualNanos: 100},
	}
	if err := runDiff([]string{old, write("drift.json", drifted)}); err == nil {
		t.Error("virtual_ns drift not reported")
	}

	if err := runDiff([]string{old, write("short.json", base[:1])}); err == nil {
		t.Error("missing run not reported")
	}
	if err := runDiff([]string{old}); err == nil {
		t.Error("single-argument diff succeeded")
	}
	if err := runDiff([]string{old, filepath.Join(dir, "nope.json")}); err == nil {
		t.Error("nonexistent file succeeded")
	}

	// A cell is identified by its configuration: the same config
	// twice in one file is a corrupt sweep, not two cells.
	dup := []*load.Metrics{base[0], base[0]}
	if err := runDiff([]string{old, write("dup.json", dup)}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate key error = %v, want duplicate-run failure", err)
	}
}

// TestSweepConfigsCoverEveryScenario keeps the baseline matrix honest:
// every scenario present, the §5 cells sweeping fork vs spawn vs
// builder at more than one heap size, and the SMP scenarios swept over
// multiple CPU counts.
func TestSweepConfigsCoverEveryScenario(t *testing.T) {
	cfgs := sweepConfigs(0)
	seen := map[load.Scenario]int{}
	heaps := map[uint64]bool{}
	smpCPUs := map[int]bool{}
	for _, c := range cfgs {
		seen[c.Scenario]++
		if c.Scenario == load.Prefork {
			heaps[c.HeapBytes] = true
		}
		if c.Scenario == load.SMPServer {
			smpCPUs[c.CPUs] = true
		}
	}
	for _, s := range load.Scenarios() {
		// The distributed cells and the migration cell stay out of the
		// baseline matrix on purpose: the network and migration planes
		// must be free when disabled, so BENCH_PR10.json records the
		// same sweep as the trajectory points before it (see git
		// history). Their regression coverage is the metrics goldens
		// and the net/migrate determinism gates, not the bench
		// trajectory.
		if s.Distributed() || s == load.Migrate {
			continue
		}
		if seen[s] == 0 {
			t.Errorf("sweep misses scenario %s", s)
		}
	}
	if seen[load.Prefork] < 6 || len(heaps) < 2 {
		t.Errorf("prefork cells = %d over %d heaps; want the full §5 matrix", seen[load.Prefork], len(heaps))
	}
	if len(smpCPUs) < 3 {
		t.Errorf("smpserver swept over %d CPU counts; want the 1/2/4/8 matrix", len(smpCPUs))
	}

	// A pinned sweep (the CI cpus matrix) pins every cell.
	for _, c := range sweepConfigs(4) {
		if c.CPUs != 4 {
			t.Fatalf("pinned sweep left %s at %d CPUs", c.Scenario, c.CPUs)
		}
	}
}

// TestRunDiffLoneRunSummary pins the gate's behaviour when a run
// config exists in only one file: non-zero exit AND a per-metric
// summary of the lone run, so the report shows exactly what the other
// sweep is missing instead of silently skipping the cell.
func TestRunDiffLoneRunSummary(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ms []*load.Metrics) string {
		t.Helper()
		data, err := json.MarshalIndent(ms, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	both := []*load.Metrics{
		{Scenario: "prefork", Strategy: "fork+exec", HeapBytes: 1 << 20, NumCPUs: 1, Requests: 4, VirtualNanos: 1000, PTECopies: 50},
		{Scenario: "prefork", Strategy: "posix_spawn", HeapBytes: 1 << 20, NumCPUs: 1, Requests: 4, VirtualNanos: 77, Syscalls: 9},
	}
	old := write("old.json", both)
	short := write("short.json", both[:1])

	var buf bytes.Buffer
	prev := diffOut
	diffOut = &buf
	defer func() { diffOut = prev }()

	if err := runDiff([]string{old, short}); err == nil {
		t.Fatal("lone run did not fail the gate")
	}
	out := buf.String()
	for _, want := range []string{
		"missing: prefork/posix_spawn",
		"virtual_ns=77",
		"syscalls=9",
		"1 difference(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}

	// The added direction summarizes too.
	buf.Reset()
	if err := runDiff([]string{short, old}); err == nil {
		t.Fatal("added run did not fail the gate")
	}
	if out := buf.String(); !strings.Contains(out, "added:   prefork/posix_spawn") || !strings.Contains(out, "virtual_ns=77") {
		t.Errorf("added-run summary missing:\n%s", out)
	}
}

// TestRunTraceWritesRenderedTrace drives the trace subcommand end to
// end: the emitted file must hold the structured trace (process
// lifecycle, syscall enter/exit), and two runs of the same invocation
// must be byte-identical.
func TestRunTraceWritesRenderedTrace(t *testing.T) {
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.trace")
	p2 := filepath.Join(dir, "b.trace")
	args := []string{"-via", "fork", "-heap", "64KiB", "-o"}
	if err := runTrace(append(args, p1)); err != nil {
		t.Fatal(err)
	}
	if err := runTrace(append(args, p2)); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two identical trace invocations differ")
	}
	for _, want := range []string{"proc+", "enter write", "exec", "proc-"} {
		if !strings.Contains(string(a), want) {
			t.Errorf("trace missing %q:\n%s", want, a)
		}
	}
}

// TestRunTraceRejectsJunk pins the trace flag error paths.
func TestRunTraceRejectsJunk(t *testing.T) {
	for _, args := range [][]string{
		{"-via", "bogus"},
		{"-heap", "xMiB"},
	} {
		if err := runTrace(args); err == nil {
			t.Errorf("runTrace(%v) succeeded, want error", args)
		}
	}
}

// TestRunClusterWritesJSON drives the cluster subcommand end to end at
// a small heap and checks the emitted report parses back.
func TestRunClusterWritesJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.json")
	err := runCluster([]string{"-scenario", "surge", "-heap", "4MiB", "-json", path})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep cluster.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(rep.Pools) != 2 || rep.Pools[0].Served == 0 || len(rep.Trace) == 0 {
		t.Errorf("unexpected cluster report: %+v", rep)
	}
}

// TestRunClusterRejectsJunk pins the cluster flag error paths.
func TestRunClusterRejectsJunk(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "bogus"},
		{"-heap", "xMiB"},
		{"extra-positional"},
	} {
		if err := runCluster(args); err == nil {
			t.Errorf("runCluster(%v) succeeded, want error", args)
		}
	}
}

// TestRunDiffSummary pins -summary: still a gate failure, but one line
// per differing run naming the changed metrics, and no per-metric dump
// for lone runs.
func TestRunDiffSummary(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ms []*load.Metrics) string {
		t.Helper()
		data, err := json.MarshalIndent(ms, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.json", []*load.Metrics{
		{Scenario: "prefork", Strategy: "fork+exec", HeapBytes: 1 << 20, NumCPUs: 1, Requests: 4, VirtualNanos: 1000, PTECopies: 50},
		{Scenario: "prefork", Strategy: "posix_spawn", HeapBytes: 1 << 20, NumCPUs: 1, Requests: 4, VirtualNanos: 77, Syscalls: 9},
	})
	drifted := write("new.json", []*load.Metrics{
		{Scenario: "prefork", Strategy: "fork+exec", HeapBytes: 1 << 20, NumCPUs: 1, Requests: 4, VirtualNanos: 1001, PTECopies: 51},
	})

	var buf bytes.Buffer
	prev := diffOut
	diffOut = &buf
	defer func() { diffOut = prev }()

	if err := runDiff([]string{"-summary", old, drifted}); err == nil {
		t.Fatal("summary mode swallowed the drift")
	}
	out := buf.String()
	for _, want := range []string{
		"drift:   prefork/fork+exec heap=1048576 ram=0 cpus=1 req=4: 2 metric(s): virtual_ns pte_copies",
		"missing: prefork/posix_spawn",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary output missing %q:\n%s", want, out)
		}
	}
	for _, reject := range []string{"1000 -> 1001", "syscalls=9"} {
		if strings.Contains(out, reject) {
			t.Errorf("summary output leaks detail %q:\n%s", reject, out)
		}
	}
}
