// Perfbench is the repository's benchmark. One run executes one workload
// for a given time, checks every output it produced, and prints each
// metric by name with its unit, then a one-line JSON summary:
//
//	go run . --workload paper-all --seed 1 --seconds 40 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	paper-all    the 208-point `turnsweep -quick -all` plan, repeated
//	paper-light  the five figures at their two lowest rates, full windows
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// reports per-layer metrics instead, timing and counting the calls the
// benchmark makes into each layer, and writes its spans under --workdir.
// The traced paper-light run also serves its plan through an in-process
// turnserved to measure the service's layers.
// The exit code is nonzero when any output check fails.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// nproc bounds the benchmark's parallelism: sweep workers and service
// connections.
var nproc = runtime.NumCPU()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports.
type result struct {
	attempted, failed int
	errs              []string
	metrics           map[string]metric
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

func (r *result) set(name string, value float64, unit string) {
	r.metrics[name] = metric{value, unit}
}

// fail records a failed check; the first few messages are kept for the
// report.
func (r *result) fail(err error) {
	if len(r.errs) < 10 {
		r.errs = append(r.errs, err.Error())
	}
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run    func(cfg runConfig) (*result, error)
	traced func(cfg runConfig) (*result, error)
}{
	"paper-all":   {paperAll.run, paperAll.traced},
	"paper-light": {paperLight.run, paperLight.traced},
}

// runConfig is one invocation's parameters.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	workdir  string
}

func main() {
	var (
		cfg     runConfig
		seconds = flag.Int("seconds", 20, "how long the run measures, in seconds")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: paper-all or paper-light")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed generates the same inputs")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/perfbench", "directory for the service's stores and the span files")
	flag.Parse()
	cfg.seconds = time.Duration(*seconds) * time.Second

	w, ok := workloads[cfg.workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload paper-all|paper-light, --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Printf("host: %s\n", fingerprint())
	run := w.run
	if *trace == 1 {
		run = w.traced
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(report(res))
}

// report prints every metric by name and unit, then the JSON summary as
// the last line, and returns the exit code.
func report(res *result) int {
	names := make([]string, 0, len(res.metrics))
	for name := range res.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.metrics[name]
		fmt.Printf("metric %-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, e := range res.errs {
		fmt.Printf("check failed: %s\n", e)
	}
	correct := res.failed == 0 && len(res.errs) == 0
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// fingerprint names the host a result was measured on.
func fingerprint() string {
	return fmt.Sprintf("cpu=%q numcpu=%d goarch=%s go=%s", cpuModel(), runtime.NumCPU(), runtime.GOARCH, runtime.Version())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// clock times one measured interval in wall and CPU time.
type clock struct {
	wall0 time.Time
	cpu0  time.Duration
}

func startClock() clock { return clock{time.Now(), cpuTime()} }

func (c clock) stop() (wall, cpu time.Duration) {
	return time.Since(c.wall0), cpuTime() - c.cpu0
}

// passLine records one measured interval with its wall/CPU ratio, which
// shows how much of the wall time the host gave to other tenants.
func passLine(label string, wall, cpu time.Duration, items int) {
	fmt.Printf("%s: %d items wall=%.3fs cpu=%.3fs wall/cpu=%.3f\n",
		label, items, wall.Seconds(), cpu.Seconds(), wall.Seconds()/cpu.Seconds())
}
