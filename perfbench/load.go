package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"lshjoin"
	"lshjoin/internal/xrand"
)

type opKind int

const (
	opEstimate opKind = iota
	opSearch
	opInsert
	numOps
)

var opNames = [numOps]string{"estimate", "search", "insert"}

// target is what a workload's clients drive: a public front end, or the
// traced replica of its call order. The same op sequence goes through
// either.
type target interface {
	// estimate builds an LSH-SS estimator with the given per-stratum sample
	// budget (0: the paper's default m_H = m_L = n) and estimator seed, and
	// runs one Estimate at tau.
	estimate(budget int, tau float64, seed uint64) (float64, error)
	// search runs one SearchSimilar.
	search(v lshjoin.Vector, tau float64) ([]int, error)
	// insert runs the front end's insert call — Insert for the single
	// vector of a remote_mixed or local_estimate op, InsertBatch for a
	// durable_ingest batch — and returns the assigned ids.
	insert(vs []lshjoin.Vector) ([]int, error)
}

// loadStats is what one client (or, merged, one phase) measured.
type loadStats struct {
	lat       [numOps][]time.Duration
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration // wall time of the op phases

	// acked lists every acknowledged insert call, in the order this client
	// made them.
	acked []insertCall
}

type insertCall struct {
	vs  []lshjoin.Vector
	ids []int
}

// do runs and times one op. A failed op is counted and has no latency.
func (s *loadStats) do(k opKind, op func() error) bool {
	t0 := time.Now()
	err := op()
	d := time.Since(t0)
	s.attempted++
	if err != nil {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = err
		}
		return false
	}
	s.lat[k] = append(s.lat[k], d)
	return true
}

func (s *loadStats) insert(t target, vs []lshjoin.Vector) {
	var ids []int
	if s.do(opInsert, func() (err error) { ids, err = t.insert(vs); return err }) {
		s.acked = append(s.acked, insertCall{vs, ids})
	}
}

func (s *loadStats) merge(o *loadStats) {
	for k := range s.lat {
		s.lat[k] = append(s.lat[k], o.lat[k]...)
	}
	s.attempted += o.attempted
	s.failed += o.failed
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
	s.acked = append(s.acked, o.acked...)
}

func (s *loadStats) ackedVectors() int {
	n := 0
	for _, c := range s.acked {
		n += len(c.vs)
	}
	return n
}

func (s *loadStats) completed() int { return s.attempted - s.failed }

// mix is an op mix: an integer weight per op kind.
type mix [numOps]int

// deck deals op kinds in the exact shares of a mix: each round is one
// shuffled copy of the weights, so a run holds the mix to within one round
// and only the order is random. Drawing each op independently instead lets
// the number of cheap ops per expensive one, and with it ops_per_s, vary
// from seed to seed.
type deck struct {
	mix  mix
	rng  *rand.Rand
	left []opKind
}

func (d *deck) next() opKind {
	if len(d.left) == 0 {
		for k, w := range d.mix {
			for range w {
				d.left = append(d.left, opKind(k))
			}
		}
		d.rng.Shuffle(len(d.left), func(i, j int) { d.left[i], d.left[j] = d.left[j], d.left[i] })
	}
	k := d.left[len(d.left)-1]
	d.left = d.left[:len(d.left)-1]
	return k
}

// clientRNG is client c's op stream for the workload seed: the same seed
// gives every client the same op sequence on every run and in both the
// untraced and the traced pass.
func clientRNG(seed uint64, c int) *rand.Rand {
	return rand.New(rand.NewSource(int64(xrand.Mix2(seed, uint64(c)+1) >> 1)))
}

// mixedLoad is a symmetric closed-loop load: every client draws ops from
// the same mix.
type mixedLoad struct {
	mix       mix
	budget    int       // estimate sample budget (0: m = n)
	taus      []float64 // estimate thresholds, drawn uniformly
	searchTau float64
	queries   []lshjoin.Vector   // search inputs, drawn uniformly
	pools     [][]lshjoin.Vector // per-client distinct vectors to insert, in order
}

// run drives one closed-loop client per target for d. A client whose insert
// pool runs dry searches instead.
func (l *mixedLoad) run(targets []target, seed uint64, d time.Duration) loadStats {
	stats := make([]loadStats, len(targets))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range targets {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t, st, rng, next := targets[c], &stats[c], clientRNG(seed, c), 0
			ops := &deck{mix: l.mix, rng: rng}
			for time.Now().Before(deadline) {
				k := ops.next()
				if k == opInsert && next == len(l.pools[c]) {
					k = opSearch
				}
				switch k {
				case opEstimate:
					tau, eseed := l.taus[rng.Intn(len(l.taus))], rng.Uint64()|1
					st.do(k, func() error { _, err := t.estimate(l.budget, tau, eseed); return err })
				case opSearch:
					q := l.queries[rng.Intn(len(l.queries))]
					st.do(k, func() error { _, err := t.search(q, l.searchTau); return err })
				case opInsert:
					st.insert(t, l.pools[c][next:next+1])
					next++
				}
			}
		}(c)
	}
	wg.Wait()
	var all loadStats
	for c := range stats {
		all.merge(&stats[c])
	}
	all.elapsed = time.Since(start)
	return all
}

// latencyMs is the nearest-rank p-quantile of the op latencies, in ms,
// over every sample of the run.
func latencyMs(lat []time.Duration, p float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	ds := slices.Clone(lat)
	slices.Sort(ds)
	i := max(int(math.Ceil(p*float64(len(ds))))-1, 0)
	return float64(ds[i]) / 1e6
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// passResult is what one pass over a workload — untraced front end or
// traced replica — measured end to end.
type passResult struct {
	setup   []time.Duration // one per set-up repetition
	recover []time.Duration // one per recovery repetition
	load    loadStats
	rt      runtimeDelta
}

// describe prints the pass's sample counts and repetition times.
func (p *passResult) describe(w io.Writer, name string) {
	fmt.Fprintf(w, "%s: %d estimates, %d searches, %d inserts in %.1fs; setup_s %.4f; recover_s %.4f\n",
		name, len(p.load.lat[opEstimate]), len(p.load.lat[opSearch]), len(p.load.lat[opInsert]),
		p.load.elapsed.Seconds(), seconds(p.setup), seconds(p.recover))
}

// endToEnd lists the pass's end-to-end metrics in BENCHMARK.json order,
// rel_error and peak_rss_mb aside.
func (p *passResult) endToEnd() []metric {
	l := &p.load
	ms := []metric{{"setup_s", median(seconds(p.setup)), "s"}}
	for k := opKind(0); k < numOps; k++ {
		ms = append(ms,
			metric{opNames[k] + "_p50_ms", latencyMs(l.lat[k], 0.50), "ms"},
			metric{opNames[k] + "_p90_ms", latencyMs(l.lat[k], 0.90), "ms"})
	}
	return append(ms,
		metric{"ops_per_s", float64(l.completed()) / l.elapsed.Seconds(), "ops/s"},
		metric{"recover_s", median(seconds(p.recover)), "s"})
}

// opPhase runs one op phase. Garbage left by set-up is collected first,
// so the phase does not pay for it, and the runtime/metrics movement over
// the phase is added to rt.
func opPhase(rt *runtimeDelta, run func() loadStats) loadStats {
	runtime.GC()
	before := readRuntime()
	st := run()
	rt.add(before, readRuntime(), st.completed())
	return st
}

// runtimeDelta is the runtime/metrics movement over a pass's op phases.
type runtimeDelta struct {
	allocBytes, gcCPU, totalCPU float64
	ops                         int
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() [3]float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var out [3]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// add accumulates the movement between two readRuntime samples.
func (r *runtimeDelta) add(before, after [3]float64, ops int) {
	r.allocBytes += after[0] - before[0]
	r.gcCPU += after[1] - before[1]
	r.totalCPU += after[2] - before[2]
	r.ops += ops
}

// peakRSSMiB reads VmHWM, the process's peak resident set size.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
