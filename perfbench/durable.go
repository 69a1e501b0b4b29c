package main

// durable_ingest: a durable single-index Collection (New with Dir,
// PublishEvery = 32, the batch size) over NYT. It preloads 20k vectors; a
// writer client then inserts about 40k more in batches of 32 while a
// reader client builds LSH-SS estimators at budget 256 and τ = 0.8 and
// searches (estimate:search = 1:4). Then the run drops the handle without
// Close and times Open. The whole store lifetime — create, ingest,
// recover — repeats until --seconds have passed.
//
// NYT documents are long (about 232 features), so signing, Fenwick publish
// and the delta-log append dominate; the working set is larger than L3, and
// writes run beside reads. This is the only workload on Collection (S=1)
// and on recovery. The store lives under the run's directory in the
// checkout; the host line records its filesystem.

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"lshjoin"
	"lshjoin/internal/faultfs"
	"lshjoin/internal/lsh"
	"lshjoin/internal/lsh/persist"
)

const (
	durablePreload   = 20000
	durableInserts   = 40000
	durableBatch     = 32
	durableTau       = 0.8
	durableBudget    = 256
	durableMinCycles = 2
	durableOpens     = 3    // recoveries timed per store lifetime
	durableProbe     = 5000 // accuracy probe: NYT's exact join costs ~34 s at 20k
	crashSeed        = 7    // estimator seed of the pre/post-crash comparison
)

var durableOptions = lshjoin.Options{K: 20, Tables: 1, Seed: 1, PublishEvery: durableBatch}

// collectionFront drives a Collection.
type collectionFront struct{ c *lshjoin.Collection }

func (f collectionFront) estimate(budget int, tau float64, seed uint64) (float64, error) {
	return estimateWith(f.c.Estimator, budget, tau, seed)
}

func (f collectionFront) search(v lshjoin.Vector, tau float64) ([]int, error) {
	return f.c.SearchSimilar(v, tau), nil
}

func (f collectionFront) insert(vs []lshjoin.Vector) ([]int, error) {
	first := f.c.InsertBatch(vs)
	ids := make([]int, len(vs))
	for i := range ids {
		ids[i] = first + i
	}
	return ids, nil
}

// ingestLoad is one store lifetime's op sequence: the writer inserts its
// pool in batches while the reader runs estimate:search = 1:4 until the
// writer is done.
func ingestLoad(t target, c corpus, seed uint64) loadStats {
	var writer, reader loadStats
	done := make(chan struct{})
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(done)
		pool := c.pools[0]
		for i := 0; i+durableBatch <= len(pool); i += durableBatch {
			writer.insert(t, pool[i:i+durableBatch])
		}
	}()
	go func() {
		defer wg.Done()
		rng := clientRNG(seed, 1)
		ops := &deck{mix: mix{opEstimate: 1, opSearch: 4}, rng: rng}
		for {
			select {
			case <-done:
				return
			default:
			}
			switch ops.next() {
			case opEstimate:
				eseed := rng.Uint64() | 1
				reader.do(opEstimate, func() error { _, err := t.estimate(durableBudget, durableTau, eseed); return err })
			case opSearch:
				q := c.preload[rng.Intn(len(c.preload))]
				reader.do(opSearch, func() error { _, err := t.search(q, durableTau); return err })
			}
		}
	}()
	wg.Wait()
	writer.merge(&reader)
	writer.elapsed = time.Since(start)
	return writer
}

func runDurableIngest(b *bench) error {
	c, err := generate(lshjoin.DatasetNYT, durablePreload+durableInserts, durablePreload, 1, b.cfg.seed)
	if err != nil {
		return err
	}
	front, err := durableFrontPass(b, c)
	if err != nil {
		return err
	}
	front.describe(b.w, "front end")
	e2e := append(front.endToEnd(), metric{"peak_rss_mb", peakRSSMiB(), "MiB"})
	if !b.cfg.trace {
		probe := c.preload[:durableProbe]
		opt := durableOptions
		opt.PublishEvery = 0
		pc, err := lshjoin.New(probe, opt)
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
	traced, x, err := durableTracedPass(b, c, tr)
	if err != nil {
		return err
	}
	return b.finishTraced(tr, front, traced, x)
}

// cycles runs store lifetimes until --seconds have passed, at least
// durableMinCycles of them.
func (b *bench) cycles(f func(cycle int, dir string) error) error {
	deadline := time.Now().Add(time.Duration(b.cfg.seconds) * time.Second)
	for cycle := 0; cycle < durableMinCycles || time.Now().Before(deadline); cycle++ {
		dir := filepath.Join(b.out, fmt.Sprintf("store-%d", cycle))
		runtime.GC()
		if err := f(cycle, dir); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}

func durableFrontPass(b *bench, c corpus) (*passResult, error) {
	var p passResult
	err := b.cycles(func(cycle int, dir string) error {
		opt := durableOptions
		opt.Dir = dir
		t0 := time.Now()
		col, err := lshjoin.New(c.preload, opt)
		if err != nil {
			return err
		}
		p.setup = append(p.setup, time.Since(t0))
		st := opPhase(&p.rt, func() loadStats { return ingestLoad(collectionFront{col}, c, b.cfg.seed) })
		p.load.merge(&st)
		p.load.elapsed += st.elapsed
		b.count(&st)
		want := len(c.preload) + st.ackedVectors()
		pre, err := collectionFront{col}.estimate(durableBudget, durableTau, crashSeed)
		if err != nil {
			return err
		}

		// The crash: col is dropped without Close. Let the store's
		// background checkpoint settle, then recover.
		if err := awaitQuiescent(dir); err != nil {
			return err
		}
		// Each Open recovers the same crashed store: nothing is written to
		// it, and the reopened handle is dropped without Close again.
		for rep := 0; rep < durableOpens; rep++ {
			runtime.GC()
			t0 = time.Now()
			re, err := lshjoin.Open(dir, lshjoin.Options{PublishEvery: durableBatch})
			if err != nil {
				return err
			}
			p.recover = append(p.recover, time.Since(t0))
			post, err := collectionFront{re}.estimate(durableBudget, durableTau, crashSeed)
			b.check(re.N() == want, "durable_ingest: reopened N = %d, want preload + acknowledged inserts = %d", re.N(), want)
			b.check(err == nil && math.Float64bits(pre) == math.Float64bits(post),
				"durable_ingest: estimate after reopen %v (err %v), before the crash %v", post, err, pre)
		}
		return nil
	})
	return &p, err
}

// awaitQuiescent waits until the store in dir has no checkpoint in flight:
// one snapshot, one delta log based on it, no temp files. A checkpoint
// signalled by the last publish holds a second log until it commits and
// cleans up, and nothing starts another once inserts have stopped.
func awaitQuiescent(dir string) error {
	deadline := time.Now().Add(time.Minute)
	for {
		names, err := faultfs.OS{}.ReadDir(dir)
		if err != nil {
			return err
		}
		var snaps, logs []string
		tmp := false
		for _, n := range names {
			switch filepath.Ext(n) {
			case ".lsnap":
				snaps = append(snaps, strings.TrimSuffix(strings.TrimPrefix(n, "snap-"), ".lsnap"))
			case ".log":
				logs = append(logs, strings.TrimSuffix(strings.TrimPrefix(n, "wal-"), ".log"))
			case ".tmp":
				tmp = true
			}
		}
		if !tmp && len(snaps) == 1 && len(logs) == 1 && snaps[0] == logs[0] {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("store %s did not settle: %v", dir, names)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// durableTracedPass sends the op sequence through Collection's call order
// over an lsh.Index with a persist.Store on a counting filesystem:
// BuildSigned + persist.Create, then InsertBatch and a publishing Snapshot
// per batch, and persist.Open after the crash.
func durableTracedPass(b *bench, c corpus, tr *tracer) (*passResult, layerExtras, error) {
	var p passResult
	var x layerExtras
	fsys := &countingFS{tr: tr, fg: -1, ckpt: -1}
	family := lsh.NewSimHash(durableOptions.Seed)
	err := b.cycles(func(cycle int, dir string) error {
		x.cycles++
		tr.setPhase(phaseSetup)
		t0 := time.Now()
		var idx *lsh.Index
		if err := tr.call(0, -1, "lsh.build", func() (err error) {
			idx, err = lsh.BuildSigned(c.preload, family, durableOptions.K, durableOptions.Tables, lsh.SignConfig{})
			return err
		}); err != nil {
			return err
		}
		id := tr.begin(0, -1, "persist.create")
		fsys.setForeground(0, id)
		_, err := persist.Create(fsys, dir, idx)
		fsys.clearForeground(id)
		tr.end(id, err, attrs{})
		if err != nil {
			return err
		}
		p.setup = append(p.setup, time.Since(t0))

		tr.setPhase(phaseOps)
		rep := durableReplica(tr, fsys, idx)
		v0 := idx.Current().Version()
		st := opPhase(&p.rt, func() loadStats { return ingestLoad(rep, c, b.cfg.seed) })
		x.publishes += int(idx.Current().Version() - v0)
		p.load.merge(&st)
		p.load.elapsed += st.elapsed
		b.count(&st)
		for _, call := range st.acked {
			x.logicalBytes += int64(len(persist.EncodeVectors(call.vs)))
		}
		want := len(c.preload) + st.ackedVectors()

		tr.setPhase(phasePost)
		pre, err := rep.estimate(durableBudget, durableTau, crashSeed)
		if err != nil {
			return err
		}
		// The crash: idx and its store are dropped without Close.
		if err := awaitQuiescent(dir); err != nil {
			return err
		}
		runtime.GC()

		tr.setPhase(phaseRecover)
		t0 = time.Now()
		id = tr.begin(0, -1, "persist.open")
		fsys.setForeground(0, id)
		idx, store, err := persist.Open(fsys, dir)
		fsys.clearForeground(id)
		tr.end(id, err, attrs{})
		if err != nil {
			return err
		}
		p.recover = append(p.recover, time.Since(t0))

		tr.setPhase(phasePost)
		rep = durableReplica(tr, fsys, idx)
		post, err := rep.estimate(durableBudget, durableTau, crashSeed)
		b.check(idx.N() == want, "durable_ingest: replica reopened N = %d, want %d", idx.N(), want)
		b.check(err == nil && math.Float64bits(pre) == math.Float64bits(post),
			"durable_ingest: replica estimate after reopen %v (err %v), before the crash %v", post, err, pre)
		if cycle > 0 {
			return store.Close()
		}
		// The front end on the same vectors: the preload, then the
		// acknowledged batches in order.
		front, err := lshjoin.New(c.preload, durableOptions)
		if err != nil {
			return errors.Join(err, store.Close())
		}
		for _, call := range st.acked {
			front.InsertBatch(call.vs)
		}
		checkReplica(b, "durable_ingest", collectionFront{front}, rep, durableBudget, durableTau, c.preload[:8])
		signProbe(tr, c.preload, durableOptions.K, durableOptions.Tables, 1024)
		return store.Close()
	})
	return &p, x, err
}

// durableReplica is Collection's call order over idx: InsertBatch then a
// publishing Snapshot once PublishEvery vectors are pending; reads publish
// any pending delta and wrap the snapshot as a one-shard group.
func durableReplica(tr *tracer, fsys *countingFS, idx *lsh.Index) *replica {
	publish := func(op int64, root int32) {
		id := tr.begin(op, root, "lsh.publish")
		fsys.setForeground(op, id)
		idx.Snapshot()
		fsys.clearForeground(id)
		tr.end(id, nil, attrs{})
	}
	return &replica{
		tr: tr,
		capture: func(op int64, root int32) (*lsh.GroupSnapshot, error) {
			if idx.Pending() > 0 {
				publish(op, root)
			}
			id := tr.begin(op, root, "lsh.capture")
			gs := lsh.SingleSnapshot(idx.Snapshot())
			tr.end(id, nil, attrs{})
			return gs, nil
		},
		ingest: func(op int64, root int32, vs []lshjoin.Vector) ([]int, error) {
			id := tr.begin(op, root, "lsh.insert")
			first := idx.InsertBatch(vs)
			tr.end(id, nil, attrs{items: int64(len(vs))})
			if idx.Pending() >= durableOptions.PublishEvery {
				publish(op, root)
			}
			ids := make([]int, len(vs))
			for i := range ids {
				ids[i] = first + i
			}
			return ids, nil
		},
	}
}

// countingFS is the OS filesystem under the durable replica's store, with
// each call recorded as a persist span. Writes and fsyncs of a delta log
// belong to the foreground call in flight (a publish, the store's creation
// or its recovery). The temp-file writes, renames and directory fsyncs of a
// checkpoint belong to a persist.checkpoint span that runs from the
// snapshot temp file's creation to the directory fsync after the MANIFEST
// rename; checkpoints are serialized by the store.
type countingFS struct {
	faultfs.OS
	tr *tracer

	mu       sync.Mutex
	fgOp     int64
	fg       int32 // foreground span, -1 when none
	ckpt     int32 // checkpoint span in flight, -1 when none
	renames  int   // checkpoint renames awaiting their directory fsync
	manifest bool  // the checkpoint in flight has renamed its MANIFEST
}

func (f *countingFS) setForeground(op int64, id int32) {
	f.mu.Lock()
	f.fgOp, f.fg = op, id
	f.mu.Unlock()
}

// clearForeground ends span id's claim, unless another foreground call
// took over meanwhile.
func (f *countingFS) clearForeground(id int32) {
	f.mu.Lock()
	if f.fg == id {
		f.fgOp, f.fg = 0, -1
	}
	f.mu.Unlock()
}

// owner returns the span a call on the named file belongs to.
func (f *countingFS) owner(name string) (int64, int32) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if strings.HasSuffix(name, ".tmp") && f.ckpt >= 0 {
		return 0, f.ckpt
	}
	return f.fgOp, f.fg
}

func (f *countingFS) Create(name string) (faultfs.File, error) {
	base := filepath.Base(name)
	f.mu.Lock()
	if strings.HasPrefix(base, "snap-") && strings.HasSuffix(base, ".tmp") && f.ckpt < 0 {
		f.ckpt, f.renames, f.manifest = f.tr.begin(0, -1, "persist.checkpoint"), 0, false
	}
	f.mu.Unlock()
	file, err := f.OS.Create(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: file, fs: f, name: name}, nil
}

func (f *countingFS) Append(name string) (faultfs.File, error) {
	file, err := f.OS.Append(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: file, fs: f, name: name}, nil
}

func (f *countingFS) Rename(oldpath, newpath string) error {
	op, parent := f.owner(oldpath)
	id := f.tr.begin(op, parent, "persist.rename")
	err := f.OS.Rename(oldpath, newpath)
	f.tr.end(id, err, attrs{})
	f.mu.Lock()
	if parent >= 0 && parent == f.ckpt {
		f.renames++
		f.manifest = f.manifest || filepath.Base(newpath) == "MANIFEST"
	}
	f.mu.Unlock()
	return err
}

func (f *countingFS) SyncDir(dir string) error {
	f.mu.Lock()
	op, parent, done := f.fgOp, f.fg, int32(-1)
	if f.renames > 0 {
		f.renames--
		op, parent = 0, f.ckpt
		if f.manifest && f.renames == 0 {
			done, f.ckpt = f.ckpt, -1
		}
	}
	f.mu.Unlock()
	id := f.tr.begin(op, parent, "persist.syncdir")
	err := f.OS.SyncDir(dir)
	f.tr.end(id, err, attrs{})
	if done >= 0 {
		f.tr.end(done, err, attrs{})
	}
	return err
}

func (f *countingFS) ReadFile(name string) ([]byte, error) {
	op, parent := f.owner(name)
	id := f.tr.begin(op, parent, "persist.read")
	data, err := f.OS.ReadFile(name)
	failed := err
	if faultfs.IsNotExist(err) {
		failed = nil // recovery probes for the next log of the chain this way
	}
	f.tr.end(id, failed, attrs{bytes: int64(len(data)), flag: isLog(name)})
	return data, err
}

// isLog reports whether name is a delta log; span flag of persist file ops.
func isLog(name string) bool { return filepath.Ext(name) == ".log" }

type countingFile struct {
	faultfs.File
	fs   *countingFS
	name string
}

func (c *countingFile) Write(p []byte) (int, error) {
	op, parent := c.fs.owner(c.name)
	id := c.fs.tr.begin(op, parent, "persist.write")
	n, err := c.File.Write(p)
	c.fs.tr.end(id, err, attrs{bytes: int64(n), flag: isLog(c.name)})
	return n, err
}

func (c *countingFile) Sync() error {
	op, parent := c.fs.owner(c.name)
	id := c.fs.tr.begin(op, parent, "persist.sync")
	err := c.File.Sync()
	c.fs.tr.end(id, err, attrs{flag: isLog(c.name)})
	return err
}
