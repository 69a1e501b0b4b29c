package main

// remote_mixed: two in-memory ShardServers (K=20, Tables=2) on loopback in
// this process, a 20k DBLP preload through RemoteCollection.InsertBatch,
// and 2 clients, each with its own Connect, running estimate:insert:search
// = 1:8:4 with estimates at WithSampleBudget(256, 256) and τ = 0.8.
//
// Almost every read follows an insert, so it ships and decodes the changed
// shards' full snapshots: RPC, decode and regrouping make up nearly all of
// the read latency. Only this workload shows coordinator delta reads or
// search push-down.

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"time"

	"lshjoin"
	"lshjoin/internal/lsh"
	"lshjoin/internal/lsh/persist"
	"lshjoin/internal/shardrpc"
)

const (
	remoteShards  = 2
	remotePreload = 20000
	remotePool    = 24000 // insert candidates, split across the clients
	remoteTau     = 0.8
	remoteBudget  = 256
	clients       = 2
	reps          = 9 // set-up and recovery repetitions; their median is reported
)

// remoteOptions is the shard servers' hashing identity.
var remoteOptions = lshjoin.Options{K: 20, Tables: 2, Seed: 1}

// cluster is S in-memory shard servers serving on loopback.
type cluster struct {
	servers []*lshjoin.ShardServer
	addrs   []string
	served  []chan error
}

func startCluster() (*cluster, error) {
	c := &cluster{}
	for s := 0; s < remoteShards; s++ {
		srv, err := lshjoin.NewShardServer(remoteOptions)
		if err != nil {
			return nil, errors.Join(err, c.close())
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			return nil, errors.Join(err, c.close())
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		c.servers = append(c.servers, srv)
		c.addrs = append(c.addrs, ln.Addr().String())
		c.served = append(c.served, done)
	}
	return c, nil
}

// close stops every server and waits for its Serve to return.
func (c *cluster) close() error {
	var errs []error
	for i, srv := range c.servers {
		errs = append(errs, srv.Close(), <-c.served[i])
	}
	c.servers = nil
	return errors.Join(errs...)
}

// remoteFront drives a RemoteCollection.
type remoteFront struct{ rc *lshjoin.RemoteCollection }

func (f remoteFront) estimate(budget int, tau float64, seed uint64) (float64, error) {
	return estimateWith(f.rc.Estimator, budget, tau, seed)
}

func (f remoteFront) search(v lshjoin.Vector, tau float64) ([]int, error) {
	return f.rc.SearchSimilar(v, tau)
}

func (f remoteFront) insert(vs []lshjoin.Vector) ([]int, error) {
	id, err := f.rc.Insert(vs[0])
	return []int{id}, err
}

// estimateWith is the caller's fresh estimate: Estimator(AlgoLSHSS, …)
// followed by one Estimate.
func estimateWith(build func(lshjoin.Algorithm, ...lshjoin.EstimatorOption) (lshjoin.Estimator, error), budget int, tau float64, seed uint64) (float64, error) {
	opts := []lshjoin.EstimatorOption{lshjoin.WithEstimatorSeed(seed)}
	if budget > 0 {
		opts = append(opts, lshjoin.WithSampleBudget(budget, budget))
	}
	e, err := build(lshjoin.AlgoLSHSS, opts...)
	if err != nil {
		return 0, err
	}
	return e.Estimate(tau)
}

func remoteLoad(c corpus) *mixedLoad {
	return &mixedLoad{
		mix:       mix{opEstimate: 1, opSearch: 4, opInsert: 8},
		budget:    remoteBudget,
		taus:      []float64{remoteTau},
		searchTau: remoteTau,
		queries:   c.preload,
		pools:     c.pools,
	}
}

func runRemoteMixed(b *bench) error {
	c, err := generate(lshjoin.DatasetDBLP, remotePreload+remotePool, remotePreload, clients, b.cfg.seed)
	if err != nil {
		return err
	}
	front, cl, err := remoteFrontPass(b, c)
	if cl != nil {
		err = errors.Join(err, cl.close())
	}
	if err != nil {
		return err
	}
	front.describe(b.w, "front end")
	e2e := append(front.endToEnd(), metric{"peak_rss_mb", peakRSSMiB(), "MiB"})
	if !b.cfg.trace {
		rel, err := remoteAccuracy(b, c.preload)
		if err != nil {
			return err
		}
		b.metrics = append(e2e, metric{"rel_error", rel, "ratio"})
		return nil
	}
	tr := newTracer()
	traced, x, err := remoteTracedPass(b, c, tr)
	if err != nil {
		return err
	}
	return b.finishTraced(tr, front, traced, x)
}

// remoteSetup starts the servers and preloads them through a coordinator:
// what a deployment pays before its first op.
func remoteSetup(preload []lshjoin.Vector) (*cluster, time.Duration, error) {
	t0 := time.Now()
	cl, err := startCluster()
	if err != nil {
		return nil, 0, err
	}
	rc, err := lshjoin.Connect(cl.addrs, lshjoin.Options{})
	if err == nil {
		if _, err = rc.InsertBatch(preload); err == nil {
			_, err = rc.N() // publishes on every shard
		}
		rc.Close()
	}
	d := time.Since(t0)
	if err != nil {
		return nil, 0, errors.Join(err, cl.close())
	}
	return cl, d, nil
}

// remoteFrontPass measures the RemoteCollection front end. It returns the
// cluster it leaves running (nil on error paths that closed it).
func remoteFrontPass(b *bench, c corpus) (*passResult, *cluster, error) {
	var p passResult
	var cl *cluster
	for rep := 0; rep < reps; rep++ {
		if cl != nil {
			if err := cl.close(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		next, d, err := remoteSetup(c.preload)
		if err != nil {
			return nil, nil, err
		}
		cl = next
		p.setup = append(p.setup, d)
	}
	targets, closeAll, err := connectAll(cl.addrs)
	if err != nil {
		return nil, cl, err
	}
	defer closeAll()
	p.load = opPhase(&p.rt, func() loadStats {
		return remoteLoad(c).run(targets, b.cfg.seed, time.Duration(b.cfg.seconds)*time.Second)
	})
	b.count(&p.load)

	rc := targets[0].(remoteFront).rc
	n, err := rc.N()
	want := len(c.preload) + p.load.ackedVectors()
	b.check(err == nil && n == want, "remote_mixed: N = %d (err %v) after the run, want preload + acknowledged inserts = %d", n, err, want)

	// A restarted coordinator: Connect and a first full capture.
	for rep := 0; rep < reps; rep++ {
		runtime.GC()
		t0 := time.Now()
		r2, err := lshjoin.Connect(cl.addrs, lshjoin.Options{})
		if err != nil {
			return nil, cl, err
		}
		_, err = r2.N()
		p.recover = append(p.recover, time.Since(t0))
		r2.Close()
		if err != nil {
			return nil, cl, err
		}
	}
	return &p, cl, nil
}

// connectAll connects one coordinator per client and warms its snapshot
// cache, so the op phase starts from a served state.
func connectAll(addrs []string) ([]target, func(), error) {
	var rcs []*lshjoin.RemoteCollection
	closeAll := func() {
		for _, rc := range rcs {
			rc.Close()
		}
	}
	targets := make([]target, clients)
	for i := range targets {
		rc, err := lshjoin.Connect(addrs, lshjoin.Options{})
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		rcs = append(rcs, rc)
		if _, err := rc.N(); err != nil {
			closeAll()
			return nil, nil, err
		}
		targets[i] = remoteFront{rc}
	}
	return targets, closeAll, nil
}

// remoteAccuracy checks that fixed-seed remote estimates over the preload
// are bit-equal to an in-process NewSharded over the same vectors, and
// returns their relative error against the exact join sizes.
func remoteAccuracy(b *bench, preload []lshjoin.Vector) (float64, error) {
	cl, _, err := remoteSetup(preload)
	if err != nil {
		return 0, err
	}
	defer cl.close()
	rc, err := lshjoin.Connect(cl.addrs, lshjoin.Options{})
	if err != nil {
		return 0, err
	}
	defer rc.Close()
	opt := remoteOptions
	opt.Shards = remoteShards
	local, err := lshjoin.NewSharded(preload, opt)
	if err != nil {
		return 0, err
	}
	return relError(preload, func(seed uint64) ([]float64, error) {
		remote, err := estimateGrid(func(o ...lshjoin.EstimatorOption) (lshjoin.Estimator, error) {
			return rc.Estimator(lshjoin.AlgoLSHSS, o...)
		}, seed)
		if err != nil {
			return nil, err
		}
		inproc, err := estimateGrid(func(o ...lshjoin.EstimatorOption) (lshjoin.Estimator, error) {
			return local.Estimator(lshjoin.AlgoLSHSS, o...)
		}, seed)
		if err != nil {
			return nil, err
		}
		for i := range remote {
			b.check(math.Float64bits(remote[i]) == math.Float64bits(inproc[i]),
				"remote_mixed: estimator seed %d τ=%v: remote estimate %v, in-process NewSharded %v", seed, accuracyTaus[i], remote[i], inproc[i])
		}
		return remote, nil
	})
}

// remoteReplica is RemoteCollection's call order over shardrpc clients:
// per-shard Client.Snapshot (not-modified against the cached version) →
// DecodeSnapshot → NewGroupSnapshot, and Client.Ingest to the home shard.
type remoteReplica struct {
	tr      *tracer
	clients []*shardrpc.Client
	snaps   []*lsh.Snapshot // the per-shard snapshot cache
}

func dialReplica(tr *tracer, addrs []string) (*remoteReplica, error) {
	r := &remoteReplica{tr: tr, snaps: make([]*lsh.Snapshot, len(addrs))}
	for _, addr := range addrs {
		c, err := shardrpc.Dial(addr, shardrpc.ClientOptions{})
		if err != nil {
			r.close()
			return nil, err
		}
		r.clients = append(r.clients, c)
	}
	return r, nil
}

func (r *remoteReplica) close() {
	for _, c := range r.clients {
		c.Close()
	}
}

func (r *remoteReplica) target() *replica {
	return &replica{tr: r.tr, capture: r.capture, ingest: r.ingest}
}

// capture fetches every shard in parallel, as RemoteCollection does.
func (r *remoteReplica) capture(op int64, root int32) (*lsh.GroupSnapshot, error) {
	snaps := make([]*lsh.Snapshot, len(r.clients))
	errs := make([]error, len(r.clients))
	var wg sync.WaitGroup
	for s := range r.clients {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			snaps[s], errs[s] = r.fetch(op, root, s)
		}(s)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	copy(r.snaps, snaps)
	var gs *lsh.GroupSnapshot
	err := r.tr.call(op, root, "lsh.capture", func() (err error) {
		gs, err = lsh.NewGroupSnapshot(snaps)
		return err
	})
	return gs, err
}

func (r *remoteReplica) fetch(op int64, root int32, s int) (*lsh.Snapshot, error) {
	have := r.snaps[s]
	var haveVer uint64
	if have != nil {
		haveVer = have.Version()
	}
	id := r.tr.begin(op, root, "shardrpc.snapshot")
	version, blob, notMod, err := r.clients[s].Snapshot(haveVer)
	r.tr.end(id, err, attrs{bytes: int64(len(blob)), flag: notMod})
	switch {
	case err != nil:
		return nil, err
	case notMod && (have == nil || version != haveVer):
		return nil, fmt.Errorf("shard %d answered not-modified for version %d we do not hold", s, version)
	case notMod:
		return have, nil
	}
	var idx *lsh.Index
	if err := r.tr.call(op, root, "persist.decode", func() (err error) {
		idx, err = persist.DecodeSnapshot(blob)
		return err
	}); err != nil {
		return nil, err
	}
	snap := idx.Current()
	if snap.Version() != version || snap.K() != remoteOptions.K || snap.L() != remoteOptions.Tables {
		return nil, fmt.Errorf("shard %d snapshot v%d k=%d ℓ=%d does not match the response header v%d", s, snap.Version(), snap.K(), snap.L(), version)
	}
	return snap, nil
}

// ingest routes each vector to its home shard and streams the per-shard
// runs, as RemoteCollection.Insert and InsertBatch do.
func (r *remoteReplica) ingest(op int64, root int32, vs []lshjoin.Vector) ([]int, error) {
	S := len(r.clients)
	parts := make([][]lshjoin.Vector, S)
	home := make([]int, len(vs))
	for i, v := range vs {
		home[i] = lsh.RouteVector(v, S)
		parts[home[i]] = append(parts[home[i]], v)
	}
	next := make([]int, S)
	for s, part := range parts {
		if len(part) == 0 {
			continue
		}
		id := r.tr.begin(op, root, "shardrpc.ingest")
		first, _, err := r.clients[s].Ingest(part)
		r.tr.end(id, err, attrs{items: int64(len(part))})
		if err != nil {
			return nil, err
		}
		next[s] = first
	}
	ids := make([]int, len(vs))
	for i, s := range home {
		ids[i] = int(lsh.GroupID(s, next[s]))
		next[s]++
	}
	return ids, nil
}

// remoteTracedPass sends the op sequence through the replica against a
// freshly preloaded cluster, then checks the replica against a
// RemoteCollection on the state the pass left.
func remoteTracedPass(b *bench, c corpus, tr *tracer) (*passResult, layerExtras, error) {
	var p passResult
	tr.setPhase(phaseSetup)
	t0 := time.Now()
	cl, err := startCluster()
	if err != nil {
		return nil, layerExtras{}, err
	}
	defer cl.close()
	loader, err := dialReplica(tr, cl.addrs)
	if err != nil {
		return nil, layerExtras{}, err
	}
	_, err = loader.target().insert(c.preload)
	loader.close()
	if err != nil {
		return nil, layerExtras{}, err
	}
	replicas := make([]*remoteReplica, clients)
	targets := make([]target, clients)
	for i := range replicas {
		if replicas[i], err = dialReplica(tr, cl.addrs); err != nil {
			return nil, layerExtras{}, err
		}
		defer replicas[i].close()
		targets[i] = replicas[i].target()
		if _, err := targets[i].search(c.preload[0], remoteTau); err != nil { // warm the cache
			return nil, layerExtras{}, err
		}
	}
	p.setup = append(p.setup, time.Since(t0))

	tr.setPhase(phaseOps)
	p.load = opPhase(&p.rt, func() loadStats {
		return remoteLoad(c).run(targets, b.cfg.seed, time.Duration(b.cfg.seconds)*time.Second)
	})
	b.count(&p.load)

	tr.setPhase(phaseRecover)
	for rep := 0; rep < reps; rep++ {
		runtime.GC()
		t0 := time.Now()
		r2, err := dialReplica(tr, cl.addrs)
		if err != nil {
			return nil, layerExtras{}, err
		}
		_, err = r2.capture(0, -1)
		p.recover = append(p.recover, time.Since(t0))
		r2.close()
		if err != nil {
			return nil, layerExtras{}, err
		}
	}

	tr.setPhase(phasePost)
	rc, err := lshjoin.Connect(cl.addrs, lshjoin.Options{})
	if err != nil {
		return nil, layerExtras{}, err
	}
	defer rc.Close()
	checkReplica(b, "remote_mixed", remoteFront{rc}, targets[0], remoteBudget, remoteTau, c.preload[:8])
	for _, snap := range replicas[0].snaps {
		id := tr.begin(0, -1, "persist.encode")
		blob, err := persist.EncodeSnapshot(snap)
		tr.end(id, err, attrs{bytes: int64(len(blob))})
	}
	signProbe(tr, c.preload, remoteOptions.K, remoteOptions.Tables, 1024)
	return &p, layerExtras{}, nil
}
