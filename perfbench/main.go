// Command perfbench is the repository's host-time benchmark: it runs
// one named workload of the simulator, times it on the host, checks
// that the simulated (virtual-time) output is exactly the stored one,
// and prints every metric by name and unit. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/sim/fleet"
)

// Before each batch the timed pass boots, warms and snapshots the
// workload's shapes again and again, one set-up at a time, for
// setupSlice (at least minSetupReps times); setup_s is the median of
// all of them. So set-up time is sampled across the whole run, as the
// batch rate is.
const (
	setupSlice   = 200 * time.Millisecond
	minSetupReps = 5
)

// peak_rss_mb is this quantile of the resident set sampled while the
// batches run: the level the process stays at or below nine tenths of
// the time. The Go runtime now and then lets the resident set jump
// by two or three times for a few milliseconds, so the highest
// samples of a run depend on when such a jump happens to come.
const rssQuantile = 0.9

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: fork64, spawn4, cowmigrate or surge")
		seed      = flag.Int64("seed", 1, "input seed; picks one of the workload's stored input variants")
		seconds   = flag.Int("seconds", 10, "host seconds to measure for")
		trace     = flag.Int("trace", 0, "0: timed pass (end-to-end metrics); 1: traced pass (per-layer metrics)")
		root      = flag.String("root", ".", "repository root: refs are read from and results written under it")
		commit    = flag.String("commit", "unknown", "commit the program was built from, for the results record")
		writeRefs = flag.Bool("write-refs", false, "regenerate the workload's stored reference reports instead of measuring")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *root, *commit, *writeRefs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(name string, seed int64, seconds, trace int, root, commit string, writeRefs bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", seconds)
	}
	workers := runtime.NumCPU()
	if writeRefs {
		return writeRefFiles(w, root, workers)
	}
	v := variant(seed)
	ref, err := readRef(w, root, v)
	if err != nil {
		return err
	}
	host := newHostRecord(root, commit, seed, v, workers)

	var res *result
	var extra any
	switch trace {
	case 0:
		res, err = timedPass(w, v, workers, seconds, ref)
	case 1:
		var tr *traceReport
		res, tr, err = tracedPass(w, v, workers, seconds, ref)
		extra = tr
	default:
		return fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	if err != nil {
		return err
	}
	printMetrics(os.Stdout, host, res)
	if err := writeResults(root, name, seed, trace, host, res, extra); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: virtual output or non-vacuity check failed", name)
	}
	return nil
}

// timedPass measures the end-to-end metrics with tracing off. Each
// round times a slice of set-ups, then one whole batch, until the
// time is up.
func timedPass(w *workload, v, workers, seconds int, ref []byte) (*result, error) {
	res := &result{Correct: true}
	var setups, rates, samples []float64
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for len(rates) == 0 || time.Now().Before(deadline) {
		// Start the set-ups and each batch from the same heap:
		// collected, and the freed memory handed back to the OS.
		debug.FreeOSMemory()
		ds, err := timeSetups(w, v, workers)
		if err != nil {
			return nil, err
		}
		setups = append(setups, ds...)
		debug.FreeOSMemory()
		var o *outcome
		rss, err := withRSS(func() (err error) {
			o, err = w.runBatch(v, workers)
			return err
		})
		if err != nil {
			return nil, err
		}
		if err := check(w, o, ref); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s batch %d: %v\n", w.name, len(rates)+1, err)
			res.Correct = false
		}
		res.Attempted += o.counts.Requests + o.counts.Failed
		res.Failed += o.counts.Failed
		rates = append(rates, float64(o.counts.Requests)/o.host.Seconds())
		for _, r := range rss {
			samples = append(samples, float64(r)/float64(mib))
		}
		fmt.Fprintf(os.Stderr, "batch %d: %d requests in %.3fs host, RSS p90 %.1f MiB; %d set-ups, median %.3fms\n",
			len(rates), o.counts.Requests, o.host.Seconds(), quantile(samples[len(samples)-len(rss):], rssQuantile),
			len(ds), median(ds)/1e6)
	}
	if !res.Correct {
		// A wrong virtual output fails every request of the run.
		res.Failed = res.Attempted
	}
	failedFrac := float64(res.Failed) / float64(res.Attempted)
	res.Metrics = map[string]metric{
		"sim_req_per_s": {median(rates), "1/s"},
		"setup_s":       {median(setups) / 1e9, "s"},
		"peak_rss_mb":   {quantile(samples, rssQuantile), "MiB"},
	}
	fmt.Printf("%-28s %.6g %s (%d batches, %d set-ups)\n", "failed_frac", failedFrac, "1", len(rates), len(setups))
	fmt.Printf("%-28s %.6g %s (process high-water mark)\n", "peak_rss_hwm_mb", float64(fleet.HostPeakRSS())/float64(mib), "MiB")
	return res, nil
}

// check is the exact-output gate plus the workload's non-vacuity check.
func check(w *workload, o *outcome, ref []byte) error {
	if string(o.report) != string(ref) {
		return fmt.Errorf("virtual report differs from the stored reference (%d bytes vs %d)", len(o.report), len(ref))
	}
	if why := w.vacuous(o.counts); why != "" {
		return fmt.Errorf("non-vacuity: %s", why)
	}
	return nil
}

// timeSetups times set-ups one after another for setupSlice, and at
// least minSetupReps of them, and returns each one's nanoseconds.
func timeSetups(w *workload, v, workers int) ([]float64, error) {
	var ds []float64
	end := time.Now().Add(setupSlice)
	for len(ds) < minSetupReps || time.Now().Before(end) {
		d, err := w.setupOnce(v, workers)
		if err != nil {
			return nil, err
		}
		ds = append(ds, float64(d))
	}
	return ds, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the q-th quantile of xs, interpolated between the two
// nearest samples.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// refPath is where variant v's expected virtual report is stored.
func refPath(w *workload, root string, v int) string {
	return filepath.Join(root, "perfbench", "refs", fmt.Sprintf("%s-v%d.json", w.name, v))
}

func readRef(w *workload, root string, v int) ([]byte, error) {
	ref, err := os.ReadFile(refPath(w, root, v))
	if err != nil {
		return nil, fmt.Errorf("stored reference report: %w", err)
	}
	return ref, nil
}

// writeRefFiles regenerates every variant's reference report. Run it
// only when a change to the simulator's virtual output is intended.
func writeRefFiles(w *workload, root string, workers int) error {
	for v := 0; v < variants; v++ {
		o, err := w.runBatch(v, workers)
		if err != nil {
			return err
		}
		if why := w.vacuous(o.counts); why != "" {
			return fmt.Errorf("%s variant %d: %s", w.name, v, why)
		}
		if err := os.WriteFile(refPath(w, root, v), o.report, 0o644); err != nil {
			return err
		}
		fmt.Printf("%s variant %d: %d requests, %.2fs host\n", w.name, v, o.counts.Requests, o.host.Seconds())
	}
	return nil
}
