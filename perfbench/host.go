package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostRecord names the host and the baseline a results file was
// measured on: host numbers differ between machines, so no number is
// meaningful without it.
type hostRecord struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// Commit is the git commit when the checkout is a repository;
	// SourceSHA256 hashes the simulator's Go sources either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	Seed         int64  `json:"seed"`
	Variant      int    `json:"variant"`
}

func newHostRecord(root, commit string, seed int64, v, workers int) hostRecord {
	return hostRecord{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Workers:      workers,
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		Commit:       commit,
		SourceSHA256: sourceHash(root),
		Seed:         seed,
		Variant:      v,
	}
}

// sourceHash digests go.mod and every .go file of the simulator,
// skipping the benchmark's own directory and hidden or build
// directories. It is "unknown" if the tree cannot be read.
func sourceHash(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (rel == "perfbench" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if rel == "go.mod" || strings.HasSuffix(rel, ".go") {
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, rel := range files {
		data, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// printMetrics writes the human-readable block that precedes the
// result line: the host record, then every metric with its unit.
func printMetrics(w io.Writer, host hostRecord, res *result) {
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d workers=%d %s %s/%s commit=%s source=%.12s seed=%d variant=%d\n",
		host.NumCPU, host.GOMAXPROCS, host.Workers, host.GoVersion, host.GOOS, host.GOARCH,
		host.Commit, host.SourceSHA256, host.Seed, host.Variant)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-28s %.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}

// writeResults stores the run's record under .bench_build/results:
// host record, result, and for the traced pass the trace itself.
func writeResults(root, name string, seed int64, trace int, host hostRecord, res *result, extra any) error {
	dir := filepath.Join(root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Workload string     `json:"workload"`
		Trace    int        `json:"trace"`
		Host     hostRecord `json:"host"`
		Result   *result    `json:"result"`
		Detail   any        `json:"detail,omitempty"`
	}{name, trace, host, res, extra}, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, trace))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
