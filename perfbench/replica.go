package main

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"lshjoin"
	"lshjoin/internal/core"
	"lshjoin/internal/lsh"
	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

// replica runs a front end's ops through the layers the front end calls, in
// the front end's order, with a span around each layer call. Workloads
// supply how the front end captures its shard-snapshot vector and how it
// ingests; estimate and search are the same steps behind every front end:
// capture, then core.NewMergedLSHSS and EstimateDetailed, or a Query and
// similarity filter per shard snapshot.
type replica struct {
	tr      *tracer
	capture func(op int64, root int32) (*lsh.GroupSnapshot, error)
	ingest  func(op int64, root int32, vs []lshjoin.Vector) ([]int, error)
}

func (r *replica) estimate(budget int, tau float64, seed uint64) (float64, error) {
	op, root := r.tr.beginOp("lshjoin.estimate")
	d, err := r.estimateIn(op, root, budget, tau, seed)
	r.tr.end(root, err, attrs{})
	return d.Estimate, err
}

// estimateIn is the estimator path under an open op span. The similarity
// is the front end's cosine, wrapped to count evaluations.
func (r *replica) estimateIn(op int64, root int32, budget int, tau float64, seed uint64) (core.Detail, error) {
	gs, err := r.capture(op, root)
	if err != nil {
		return core.Detail{}, err
	}
	var evals atomic.Int64
	sim := func(u, v vecmath.Vector) float64 {
		evals.Add(1)
		return vecmath.Cosine(u, v)
	}
	var opts []core.LSHSSOption
	if budget > 0 {
		opts = append(opts, core.WithSampleSizes(budget, budget))
	}
	var e *core.LSHSS
	if err := r.tr.call(op, root, "core.stratum", func() (err error) {
		e, err = core.NewMergedLSHSS(gs, sim, opts...)
		return err
	}); err != nil {
		return core.Detail{}, err
	}
	id := r.tr.begin(op, root, "core.sample")
	d, err := e.EstimateDetailed(tau, xrand.New(seed))
	r.tr.end(id, err, attrs{items: evals.Load(), hits: int64(d.HitsH), hitsL: int64(d.HitsL), flag: d.ReliableL})
	return d, err
}

func (r *replica) search(v lshjoin.Vector, tau float64) ([]int, error) {
	op, root := r.tr.beginOp("lshjoin.search")
	gs, err := r.capture(op, root)
	var out []int
	if err == nil {
		for s := 0; s < gs.S(); s++ {
			snap := gs.Snap(s)
			id := r.tr.begin(op, root, "lsh.search")
			cand := snap.Query(v)
			before := len(out)
			for _, local := range cand {
				if snap.Family().Sim(snap.Data()[local], v) >= tau {
					out = append(out, int(lsh.GroupID(s, int(local))))
				}
			}
			r.tr.end(id, nil, attrs{items: int64(len(cand)), hits: int64(len(out) - before)})
		}
	}
	r.tr.end(root, err, attrs{})
	return out, err
}

func (r *replica) insert(vs []lshjoin.Vector) ([]int, error) {
	op, root := r.tr.beginOp("lshjoin.insert")
	ids, err := r.ingest(op, root, vs)
	r.tr.end(root, err, attrs{})
	return ids, err
}

// signProbe times lsh.SignDigest — the batch signing path every build and
// insert takes — over vs in batches, as lsh.sign spans.
func signProbe(tr *tracer, vs []lshjoin.Vector, k, tables, batch int) {
	family := lsh.NewSimHash(1)
	for i := 0; i < len(vs); i += batch {
		part := vs[i:min(i+batch, len(vs))]
		id := tr.begin(0, -1, "lsh.sign")
		lsh.SignDigest(part, family, k, tables, lsh.SignConfig{})
		tr.end(id, nil, attrs{items: int64(len(part))})
	}
}

// layerExtras are the per-pass denominators the spans alone do not carry.
type layerExtras struct {
	cycles       int   // store lifetimes (set-up → ops → recovery) in the pass
	publishes    int   // versions the store's index published during the op phases
	logicalBytes int64 // persist.EncodeVectors bytes of every acknowledged insert
}

// layerMetrics derives the per-layer metrics from a traced pass. A metric
// whose layer call is not on the workload's path reads 0.
func layerMetrics(q *query, rt runtimeDelta, x layerExtras) []metric {
	const mib = 1 << 20
	us, ms := time.Microsecond, time.Millisecond
	estimates := float64(q.count("core.sample", phaseOps))
	searches := float64(q.count("lshjoin.search", phaseOps))
	perCycle := func(v float64) float64 { return ratio(v, float64(x.cycles)) }

	// Publish-path syncs: delta-log fsyncs, and the directory fsyncs of log
	// switches (those not inside a checkpoint).
	var logSyncs, dirSyncs int
	var logSyncTime time.Duration
	q.each("persist.sync", phaseOps, func(_ int, s *span) {
		if s.flag {
			logSyncs++
			logSyncTime += s.dur()
		}
	})
	q.each("persist.syncdir", phaseOps, func(_ int, s *span) {
		if s.parent < 0 || q.spans[s.parent].name != "persist.checkpoint" {
			dirSyncs++
		}
	})
	// Snapshot fetches, split by the not-modified fast path.
	var fetches, notMod int
	var fullTime, notModTime time.Duration
	q.each("shardrpc.snapshot", phaseOps, func(_ int, s *span) {
		fetches++
		if s.flag {
			notMod++
			notModTime += s.dur()
		} else {
			fullTime += s.dur()
		}
	})
	var walReplay int64
	q.each("persist.read", phaseRecover, func(_ int, s *span) {
		if s.flag {
			walReplay += s.bytes
		}
	})
	encodes := float64(q.count("persist.encode", phasePost))

	return []metric{
		{"lsh.sign_us_per_vec", ratio(float64(q.sumDur("lsh.sign", phasePost))/1e3, float64(q.sum("lsh.sign", phasePost, spanItems))), "us"},
		{"lsh.build_ms", q.meanDur("lsh.build", phaseSetup, ms), "ms"},
		{"lsh.publish_us", q.meanDur("lsh.publish", phaseOps, us), "us"},
		{"lsh.capture_us", q.meanDur("lsh.capture", phaseOps, us), "us"},
		{"lsh.search_us", q.meanDur("lsh.search", phaseOps, us), "us"},
		{"lsh.candidates_per_search", ratio(float64(q.sum("lsh.search", phaseOps, spanItems)), searches), "count"},
		{"lsh.search_yield", ratio(float64(q.sum("lsh.search", phaseOps, spanHits)), float64(q.sum("lsh.search", phaseOps, spanItems))), "ratio"},
		{"core.stratum_ms", q.meanDur("core.stratum", phaseOps, ms), "ms"},
		{"core.sample_ms", q.meanDur("core.sample", phaseOps, ms), "ms"},
		{"core.sim_evals_per_estimate", ratio(float64(q.sum("core.sample", phaseOps, spanItems)), estimates), "count"},
		{"core.hits_h", ratio(float64(q.sum("core.sample", phaseOps, spanHits)), estimates), "count"},
		{"core.hits_l", ratio(float64(q.sum("core.sample", phaseOps, spanHitsL)), estimates), "count"},
		{"core.reliable_l_share", ratio(float64(q.sum("core.sample", phaseOps, spanFlag)), estimates), "ratio"},
		{"persist.encode_ms", q.meanDur("persist.encode", phasePost, ms), "ms"},
		{"persist.blob_mb", ratio(float64(q.sum("persist.encode", phasePost, spanBytes)), encodes) / mib, "MiB"},
		{"persist.decode_ms", q.meanDur("persist.decode", phaseOps, ms), "ms"},
		{"persist.syncs_per_publish", ratio(float64(logSyncs+dirSyncs), float64(x.publishes)), "count"},
		{"persist.sync_us", ratio(float64(logSyncTime)/1e3, float64(logSyncs)), "us"},
		{"persist.write_amp", ratio(float64(q.sum("persist.write", phaseOps, spanBytes)), float64(x.logicalBytes)), "ratio"},
		{"persist.checkpoints", perCycle(float64(q.count("persist.checkpoint", phaseOps))), "count"},
		{"persist.checkpoint_ms", q.meanDur("persist.checkpoint", phaseOps, ms), "ms"},
		{"persist.open_ms", q.meanDur("persist.open", phaseRecover, ms), "ms"},
		{"persist.replay_mb", perCycle(float64(walReplay)) / mib, "MiB"},
		{"shardrpc.snapshot_ms", ratio(float64(fullTime)/1e6, float64(fetches-notMod)), "ms"},
		{"shardrpc.read_mb", ratio(float64(q.sum("shardrpc.snapshot", phaseOps, spanBytes)), estimates+searches) / mib, "MiB"},
		{"shardrpc.not_modified_us", ratio(float64(notModTime)/1e3, float64(notMod)), "us"},
		{"shardrpc.not_modified_ratio", ratio(float64(notMod), float64(fetches)), "ratio"},
		{"shardrpc.ingest_us", q.meanDur("shardrpc.ingest", phaseOps, us), "us"},
		{"lshjoin.self_us", q.meanSelf("lshjoin.estimate", "lshjoin.search", "lshjoin.insert"), "us"},
		{"runtime.alloc_bytes_per_op", ratio(rt.allocBytes, float64(rt.ops)), "B"},
		{"runtime.gc_cpu_frac", ratio(rt.gcCPU, rt.totalCPU), "ratio"},
	}
}

// checkReplica fails the run unless the replica's fixed-seed estimates and
// searches equal the front end's bit for bit on the same state.
func checkReplica(b *bench, name string, front, rep target, budget int, tau float64, queries []lshjoin.Vector) {
	for seed := uint64(1); seed <= 4; seed++ {
		want, err1 := front.estimate(budget, tau, seed)
		got, err2 := rep.estimate(budget, tau, seed)
		b.check(err1 == nil && err2 == nil && math.Float64bits(want) == math.Float64bits(got),
			"%s: replica estimate %v (err %v) != front end %v (err %v) at estimator seed %d", name, got, err2, want, err1, seed)
	}
	for i, q := range queries {
		want, err1 := front.search(q, tau)
		got, err2 := rep.search(q, tau)
		b.check(err1 == nil && err2 == nil && slices.Equal(want, got),
			"%s: replica search %d returned %v (err %v), front end %v (err %v)", name, i, got, err2, want, err1)
	}
}

// finishTraced reports the per-layer metrics of a traced pass, prints the
// traced pass's end-to-end metrics against the untraced front end's, and
// writes the spans out.
func (b *bench) finishTraced(tr *tracer, front, traced *passResult, x layerExtras) error {
	traced.describe(b.w, "traced replica")
	printOverhead(b.w, front.endToEnd(), traced.endToEnd())
	tr.mu.Lock()
	spans := tr.spans
	tr.mu.Unlock()
	printLayers(b.w, spans)
	b.metrics = layerMetrics(newQuery(spans), front.rt, x)
	path := filepath.Join(filepath.Dir(b.out), fmt.Sprintf("spans-%s-seed%d.jsonl", b.cfg.workload, b.cfg.seed))
	if err := dump(path, spans); err != nil {
		return err
	}
	fmt.Fprintf(b.w, "spans: %s (%d)\n", path, len(spans))
	return nil
}
