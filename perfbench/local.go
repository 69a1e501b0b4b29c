package main

// local_estimate: an in-process NewSharded collection (S=2, K=20,
// Tables=1) over 100k DBLP vectors, publishing on read, and 2 clients
// running estimate:search:insert = 4:16:1. Estimates use the paper's
// default budgets (m_H = m_L = n) at τ drawn from {0.5, …, 0.9}.
//
// Building the merged stratum and sampling pairs make up nearly all of an
// estimate here; there is no network and no disk. The working set is
// larger than L2 but fits in a server's L3. Network or persist work should
// leave this workload unchanged.

import (
	"runtime"
	"slices"
	"sort"
	"time"

	"lshjoin"
	"lshjoin/internal/lsh"
)

const (
	localCorpus    = 100000
	localPool      = 6000
	localProbe     = 20000 // accuracy probe: the first vectors of the corpus
	localSearchTau = 0.8
)

var localOptions = lshjoin.Options{K: 20, Tables: 1, Seed: 1, Shards: 2}

// shardedFront drives a ShardedCollection.
type shardedFront struct{ c *lshjoin.ShardedCollection }

func (f shardedFront) estimate(budget int, tau float64, seed uint64) (float64, error) {
	return estimateWith(f.c.Estimator, budget, tau, seed)
}

func (f shardedFront) search(v lshjoin.Vector, tau float64) ([]int, error) {
	return f.c.SearchSimilar(v, tau), nil
}

func (f shardedFront) insert(vs []lshjoin.Vector) ([]int, error) {
	return []int{f.c.Insert(vs[0])}, nil
}

func localLoad(c corpus) *mixedLoad {
	return &mixedLoad{
		mix:       mix{opEstimate: 4, opSearch: 16, opInsert: 8},
		taus:      []float64{0.5, 0.6, 0.7, 0.8, 0.9},
		searchTau: localSearchTau,
		queries:   c.preload,
		pools:     c.pools,
	}
}

func runLocalEstimate(b *bench) error {
	c, err := generate(lshjoin.DatasetDBLP, localCorpus+localPool, localCorpus, clients, b.cfg.seed)
	if err != nil {
		return err
	}
	front, err := localFrontPass(b, c)
	if err != nil {
		return err
	}
	front.describe(b.w, "front end")
	e2e := append(front.endToEnd(), metric{"peak_rss_mb", peakRSSMiB(), "MiB"})
	if !b.cfg.trace {
		probe := c.preload[:localProbe]
		pc, err := lshjoin.NewSharded(probe, localOptions)
		if err != nil {
			return err
		}
		rel, err := relError(probe, func(seed uint64) ([]float64, error) {
			return estimateGrid(func(o ...lshjoin.EstimatorOption) (lshjoin.Estimator, error) {
				return pc.Estimator(lshjoin.AlgoLSHSS, o...)
			}, seed)
		})
		if err != nil {
			return err
		}
		b.metrics = append(e2e, metric{"rel_error", rel, "ratio"})
		return nil
	}
	tr := newTracer()
	traced, err := localTracedPass(b, c, tr)
	if err != nil {
		return err
	}
	return b.finishTraced(tr, front, traced, layerExtras{})
}

func localFrontPass(b *bench, c corpus) (*passResult, error) {
	var p passResult
	var sc *lshjoin.ShardedCollection
	for rep := 0; rep < reps; rep++ {
		sc = nil // let the previous build go before timing the next
		runtime.GC()
		t0 := time.Now()
		next, err := lshjoin.NewSharded(c.preload, localOptions)
		if err != nil {
			return nil, err
		}
		p.setup = append(p.setup, time.Since(t0))
		sc = next
	}
	targets := []target{shardedFront{sc}, shardedFront{sc}}
	p.load = opPhase(&p.rt, func() loadStats {
		return localLoad(c).run(targets, b.cfg.seed, time.Duration(b.cfg.seconds)*time.Second)
	})
	b.count(&p.load)
	want := len(c.preload) + p.load.ackedVectors()
	b.check(sc.N() == want, "local_estimate: N = %d after the run, want preload + acknowledged inserts = %d", sc.N(), want)

	// An in-memory collection recovers by rebuilding from its vectors.
	all := append(append([]lshjoin.Vector(nil), c.preload...), ackedInOrder(&p.load)...)
	for rep := 0; rep < reps; rep++ {
		runtime.GC()
		t0 := time.Now()
		rebuilt, err := lshjoin.NewSharded(all, localOptions)
		if err != nil {
			return nil, err
		}
		p.recover = append(p.recover, time.Since(t0))
		b.check(rebuilt.N() == want, "local_estimate: rebuilt N = %d, want %d", rebuilt.N(), want)
	}
	return &p, nil
}

// ackedInOrder lists the acknowledged inserted vectors.
func ackedInOrder(st *loadStats) []lshjoin.Vector {
	var out []lshjoin.Vector
	for _, call := range st.acked {
		out = append(out, call.vs...)
	}
	return out
}

// localTracedPass sends the op sequence through ShardedCollection's call
// order over an lsh.ShardGroup — per-shard publish of a pending delta,
// Capture, then the estimator or search steps — and checks the replica
// against a front end holding the same vectors.
func localTracedPass(b *bench, c corpus, tr *tracer) (*passResult, error) {
	var p passResult
	tr.setPhase(phaseSetup)
	t0 := time.Now()
	var g *lsh.ShardGroup
	if err := tr.call(0, -1, "lsh.build", func() (err error) {
		g, err = lsh.NewShardGroupSigned(c.preload, lsh.NewSimHash(localOptions.Seed), localOptions.K, localOptions.Tables, localOptions.Shards, lsh.SignConfig{})
		return err
	}); err != nil {
		return nil, err
	}
	p.setup = append(p.setup, time.Since(t0))
	rep := &replica{
		tr: tr,
		capture: func(op int64, root int32) (*lsh.GroupSnapshot, error) {
			for s := 0; s < g.S(); s++ {
				if x := g.Shard(s); x.Pending() > 0 {
					id := tr.begin(op, root, "lsh.publish")
					x.Snapshot()
					tr.end(id, nil, attrs{})
				}
			}
			id := tr.begin(op, root, "lsh.capture")
			gs := g.Capture()
			tr.end(id, nil, attrs{})
			return gs, nil
		},
		ingest: func(op int64, root int32, vs []lshjoin.Vector) ([]int, error) {
			id := tr.begin(op, root, "lsh.insert")
			gid := g.Insert(vs[0])
			tr.end(id, nil, attrs{items: 1})
			return []int{int(gid)}, nil
		},
	}
	tr.setPhase(phaseOps)
	p.load = opPhase(&p.rt, func() loadStats {
		return localLoad(c).run([]target{rep, rep}, b.cfg.seed, time.Duration(b.cfg.seconds)*time.Second)
	})
	b.count(&p.load)

	tr.setPhase(phasePost)
	// The front end on the same vectors: the preload, then the
	// acknowledged inserts in id order, which lands each on the same shard
	// at the same local id.
	calls := append([]insertCall(nil), p.load.acked...)
	sort.Slice(calls, func(i, j int) bool { return calls[i].ids[0] < calls[j].ids[0] })
	front, err := lshjoin.NewSharded(c.preload, localOptions)
	if err != nil {
		return nil, err
	}
	for _, call := range calls {
		ids, _ := shardedFront{front}.insert(call.vs)
		b.check(slices.Equal(ids, call.ids), "local_estimate: front end assigned ids %v, replica %v", ids, call.ids)
	}
	checkReplica(b, "local_estimate", shardedFront{front}, rep, 0, 0.7, c.preload[:8])

	tr.setPhase(phaseRecover)
	all := append(append([]lshjoin.Vector(nil), c.preload...), ackedInOrder(&p.load)...)
	t0 = time.Now()
	if err := tr.call(0, -1, "lsh.build", func() (err error) {
		_, err = lsh.NewShardGroupSigned(all, lsh.NewSimHash(localOptions.Seed), localOptions.K, localOptions.Tables, localOptions.Shards, lsh.SignConfig{})
		return err
	}); err != nil {
		return nil, err
	}
	p.recover = append(p.recover, time.Since(t0))
	tr.setPhase(phasePost)
	signProbe(tr, c.preload, localOptions.K, localOptions.Tables, 1024)
	return &p, nil
}
