// Command perfbench is the repository's benchmark. It drives three
// workloads through the public lshjoin front ends — RemoteCollection,
// ShardedCollection and Collection — with 2 closed-loop clients in one
// process, and reports:
//
//   - with --trace 0, the end-to-end metrics a caller sees: set-up time,
//     estimate/search/insert latency percentiles, throughput, recovery
//     time, peak memory and estimator accuracy;
//   - with --trace 1, per-layer metrics (lsh, core, persist, shardrpc,
//     lshjoin, runtime) from a traced replica of each front end's call
//     order, plus the replica's own end-to-end metrics and their difference
//     from the untraced front end (the tracing overhead).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload remote_mixed --seed 1 --seconds 15 --trace 0
//
// Inputs are generated from --seed with lshjoin.GenerateDataset before any
// timing starts. Every line of standard output but the last is for people:
// the host fingerprint and each metric with its unit. The last line is one
// JSON object with the keys correct, attempted, failed and metrics. A run
// whose output checks fail prints correct=false and exits 1; failed ops are
// counted in failed (and error_rate) and the run goes on.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// workloads maps each --workload name to its driver.
var workloads = map[string]func(b *bench) error{
	"remote_mixed":   runRemoteMixed,
	"local_estimate": runLocalEstimate,
	"durable_ingest": runDurableIngest,
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// bench carries one run's configuration, its output checks and its results.
type bench struct {
	cfg  config
	w    io.Writer // standard output
	out  string    // run-private directory for stores and span dumps
	host hostInfo

	failures  []string
	attempted int
	failed    int
	firstErr  error // the first failed op's error
	metrics   []metric
}

type metric struct {
	name  string
	value float64
	unit  string
}

// check records an output check; a false ok fails the run.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// count adds a phase's op accounting to the run totals.
func (b *bench) count(st *loadStats) {
	b.attempted += st.attempted
	b.failed += st.failed
	if b.firstErr == nil {
		b.firstErr = st.firstErr
	}
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "remote_mixed | local_estimate | durable_ingest")
		seed     = fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = fs.Int("seconds", 15, "measured seconds per pass over the op mix")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replica")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	drive, ok := workloads[*workload]
	switch {
	case !ok:
		return 2, fmt.Errorf("unknown --workload %q (remote_mixed | local_estimate | durable_ingest)", *workload)
	case *seconds < 1:
		return 2, errors.New("--seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		return 2, errors.New("--trace must be 0 or 1")
	}
	out, err := filepath.Abs(filepath.Join(".bench_build", "perfbench", fmt.Sprintf("%s-%d", *workload, os.Getpid())))
	if err != nil {
		return 1, err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return 1, err
	}
	defer os.RemoveAll(out)

	b := &bench{
		cfg: config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1},
		w:   stdout,
		out: out,
	}
	b.host = fingerprint(b.cfg, out)
	hostLine, _ := json.Marshal(b.host)
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%d\nhost %s\n",
		*workload, *seed, *seconds, *trace, hostLine)
	if err := drive(b); err != nil {
		return 1, err
	}
	b.printMetrics(stdout)
	for _, f := range b.failures {
		fmt.Fprintln(stdout, "CHECK FAILED:", f)
	}
	if err := b.printResult(stdout); err != nil {
		return 1, err
	}
	if len(b.failures) > 0 {
		return 1, nil
	}
	return 0, nil
}

func (b *bench) printMetrics(w io.Writer) {
	rate := 0.0
	if b.attempted > 0 {
		rate = float64(b.failed) / float64(b.attempted)
	}
	fmt.Fprintf(w, "%-32s %14s  %s\n", "metric", "value", "unit")
	for _, m := range b.metrics {
		fmt.Fprintf(w, "%-32s %14.6g  %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(w, "%-32s %14.6g  %s  (%d failed of %d attempted)\n", "error_rate", rate, "ratio", b.failed, b.attempted)
	if b.firstErr != nil {
		fmt.Fprintln(w, "first failed op:", b.firstErr)
	}
}

// ungated metrics are printed with the others but left out of the JSON
// result, because BENCHMARK.json does not gate them: insert_p90_ms on
// durable_ingest follows disk and background-checkpoint interference, and
// its spread over ten runs exceeded the 0.25 cap on a bound.
var ungated = map[string]bool{"insert_p90_ms": true}

func (b *bench) printResult(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   len(b.failures) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   make(map[string]value, len(b.metrics)),
	}
	for _, m := range b.metrics {
		if !ungated[m.name] {
			res.Metrics[m.name] = value{m.value, m.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// printOverhead prints, per end-to-end metric, the traced replica's value
// against the untraced front end's: the cost of tracing (and of routing
// the ops through the replica).
func printOverhead(w io.Writer, front, traced []metric) {
	byName := make(map[string]float64, len(front))
	for _, m := range front {
		byName[m.name] = m.value
	}
	fmt.Fprintf(w, "tracing overhead (traced replica vs untraced front end)\n%-20s %14s %14s %9s\n",
		"metric", "untraced", "traced", "delta")
	for _, m := range traced {
		base, ok := byName[m.name]
		if !ok {
			continue
		}
		delta := "n/a"
		if base != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(m.value-base)/base)
		}
		fmt.Fprintf(w, "%-20s %14.6g %14.6g %9s  %s\n", m.name, base, m.value, delta, m.unit)
	}
}

// sortedNames returns the keys of m in order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// layerOf returns the layer prefix of a span or metric name.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}
