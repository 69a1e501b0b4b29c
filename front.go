package lshjoin

import (
	"fmt"
	"sync"
	"sync/atomic"

	"lshjoin/internal/core"
	"lshjoin/internal/exactjoin"
	"lshjoin/internal/lsh"
	"lshjoin/internal/lsh/persist"
	"lshjoin/internal/xrand"
)

// source is where a front end's data lives: an in-process shard group
// (Collection is its one-shard case, ShardedCollection the general one) or
// the coordinator's copies of remote shard servers (RemoteCollection).
// Every read is written once, in front, against capture.
type source interface {
	// capture returns the current shard-snapshot vector.
	capture() (*lsh.GroupSnapshot, error)
	// shards returns the shard count S.
	shards() int
	// ingest appends vs to shard s and returns the local id of the first.
	ingest(s int, vs []Vector) (int, error)
}

// front is the read path the three front ends share: estimator
// construction, the estimator seed stream, exact joins and searches over
// whatever shard-snapshot vector the source captures.
type front struct {
	opt    Options
	family lsh.Family
	sim    core.SimFunc
	src    source

	seedCtr atomic.Uint64

	// The exact joiner over the union corpus is rebuilt lazily. It is served
	// only to a capture of the very snapshot objects it was built over
	// (joinerGS): equal versions are not enough, because a restarted shard
	// server comes back at its old versions with other data. The cache
	// moves only forward, to a capture whose version vector componentwise
	// dominates joinerVers (summed versions alias: concurrent captures
	// (4,2) and (3,3) cover different corpora but sum equally).
	joinerMu   sync.Mutex
	joiner     *exactjoin.Joiner
	joinerGS   *lsh.GroupSnapshot
	joinerVers []uint64
}

// newFront serves src under opt; family is the hash family src's shards
// hash with.
func newFront(opt Options, family lsh.Family, src source) *front {
	return &front{opt: opt, family: family, sim: simFor(opt), src: src}
}

// must unwraps a read through an in-process source, whose capture cannot
// fail. What remains — an id naming no vector — is a caller bug and
// panics, as an out-of-range index does.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// nextSeed derives a fresh deterministic seed for estimator construction.
// Every front end draws the same stream, which is what makes a one-shard
// ShardedCollection, a Collection and a RemoteCollection reproduce one
// another's unseeded estimates call for call.
func (f *front) nextSeed() uint64 {
	return xrand.Mix2(f.opt.Seed^0xE57AB1E, f.seedCtr.Add(1))
}

// estimator binds the requested algorithm to the shard-snapshot vector
// captured now; the estimator reads those immutable snapshots for its
// whole lifetime.
func (f *front) estimator(algo Algorithm, opts []EstimatorOption) (Estimator, error) {
	var o estOpts
	for _, opt := range opts {
		opt(&o)
	}
	if o.seed == 0 {
		o.seed = f.nextSeed()
	}
	gs, err := f.src.capture()
	if err != nil {
		return nil, err
	}
	inner, err := buildEstimator(gs, f.family, f.sim, f.opt, algo, o)
	if err != nil {
		return nil, err
	}
	return &seeded{inner: inner, rng: xrand.New(o.seed)}, nil
}

func (f *front) estimateJoinSize(tau float64) (float64, error) {
	est, err := f.estimator(AlgoLSHSS, nil)
	if err != nil {
		return 0, err
	}
	return est.Estimate(tau)
}

func (f *front) estimateJoinSizeCurve(taus []float64) ([]float64, error) {
	gs, err := f.src.capture()
	if err != nil {
		return nil, err
	}
	inner, err := core.NewMergedLSHSS(gs, f.sim)
	if err != nil {
		return nil, err
	}
	return inner.EstimateCurve(taus, xrand.New(f.nextSeed()))
}

// exactJoiner returns the inverted-index joiner over the union corpus of
// the current capture, with that capture: the joiner's dense ids translate
// through its shard offsets.
func (f *front) exactJoiner() (*exactjoin.Joiner, *lsh.GroupSnapshot, error) {
	gs, err := f.src.capture()
	if err != nil {
		return nil, nil, err
	}
	f.joinerMu.Lock()
	defer f.joinerMu.Unlock()
	if f.joiner != nil && sameSnapshots(gs, f.joinerGS) {
		return f.joiner, gs, nil
	}
	j := exactjoin.NewJoiner(gs.Data())
	// A reader that raced publication, or holds a capture no newer than the
	// cached one, gets a correct one-off joiner without evicting it.
	if vers := gs.Versions(); f.joiner == nil || versionsAdvance(vers, f.joinerVers) {
		f.joiner, f.joinerGS, f.joinerVers = j, gs, vers
	}
	return j, gs, nil
}

// sameSnapshots reports whether a and b hold the same snapshot objects.
func sameSnapshots(a, b *lsh.GroupSnapshot) bool {
	if a == nil || b == nil || a.S() != b.S() {
		return false
	}
	for s := 0; s < a.S(); s++ {
		if a.Snap(s) != b.Snap(s) {
			return false
		}
	}
	return true
}

// versionsAdvance reports whether version vector next is strictly newer than
// prev: componentwise ≥ with at least one component >. Incomparable vectors
// (concurrent captures that each saw a different shard publish first) never
// advance the cache; both readers still get correct one-off joiners.
func versionsAdvance(next, prev []uint64) bool {
	ok, newer := core.VersionsDominate(next, prev)
	return ok && newer
}

func (f *front) exactJoinSize(tau float64) (int64, error) {
	if f.opt.Measure != CosineSimilarity {
		gs, err := f.src.capture()
		if err != nil {
			return 0, err
		}
		return bruteCount(gs.Data(), f.sim, tau)
	}
	j, _, err := f.exactJoiner()
	if err != nil {
		return 0, err
	}
	return j.CountAt(tau)
}

// joinPairs materializes the exact join at tau with shard-encoded ids —
// plain dense ids with one shard.
func (f *front) joinPairs(tau float64) ([]JoinPair, error) {
	if f.opt.Measure != CosineSimilarity {
		gs, err := f.src.capture()
		if err != nil {
			return nil, err
		}
		var out []JoinPair
		err = bruteJoin(gs.Data(), f.sim, tau, func(i, j int, s float64) {
			out = append(out, JoinPair{U: denseToID(gs, i), V: denseToID(gs, j), Sim: s})
		})
		return out, err
	}
	j, gs, err := f.exactJoiner()
	if err != nil {
		return nil, err
	}
	raw, err := j.Pairs(tau)
	if err != nil {
		return nil, err
	}
	out := make([]JoinPair, len(raw))
	for i, p := range raw {
		out[i] = JoinPair{U: denseToID(gs, int(p.U)), V: denseToID(gs, int(p.V)), Sim: p.Sim}
	}
	return out, nil
}

// denseToID converts a dense union index to the stable shard-encoded id.
func denseToID(gs *lsh.GroupSnapshot, dense int) int {
	s, local := gs.Locate(dense)
	return int(lsh.GroupID(s, local))
}

// searchSimilar searches every shard's captured snapshot; results are
// shard-encoded ids in shard order.
func (f *front) searchSimilar(v Vector, tau float64) ([]int, error) {
	gs, err := f.src.capture()
	if err != nil {
		return nil, err
	}
	var out []int
	for s := 0; s < gs.S(); s++ {
		for _, local := range gs.Snap(s).Search(v, tau) {
			out = append(out, int(lsh.GroupID(s, int(local))))
		}
	}
	return out, nil
}

func (f *front) n() (int, error) {
	gs, err := f.src.capture()
	if err != nil {
		return 0, err
	}
	return gs.N(), nil
}

// vector returns the vector with the given shard-encoded id.
func (f *front) vector(id int) (Vector, error) {
	gs, err := f.src.capture()
	if err != nil {
		return Vector{}, err
	}
	s, local := lsh.SplitGroupID(int64(id))
	if s < 0 || s >= gs.S() || local < 0 || local >= gs.Snap(s).N() {
		return Vector{}, fmt.Errorf("lshjoin: no vector with id %d", id)
	}
	return gs.Snap(s).Data()[local], nil
}

// version returns the summed per-shard publish version.
func (f *front) version() (uint64, error) {
	vers, err := f.shardVersions()
	if err != nil {
		return 0, err
	}
	var v uint64
	for _, sv := range vers {
		v += sv
	}
	//vsjlint:ignore versiondominance monotone change counter per its doc; dominance callers use ShardVersions
	return v, nil
}

func (f *front) shardVersions() ([]uint64, error) {
	gs, err := f.src.capture()
	if err != nil {
		return nil, err
	}
	return gs.Versions(), nil
}

func (f *front) indexBytes() (int64, error) {
	gs, err := f.src.capture()
	if err != nil {
		return 0, err
	}
	return gs.SizeBytes(), nil
}

// pairsSharingBucket returns the merged N_H of table 0.
func (f *front) pairsSharingBucket() (int64, error) {
	gs, err := f.src.capture()
	if err != nil {
		return 0, err
	}
	ms, err := core.NewMergedStratum(gs, 0)
	if err != nil {
		return 0, fmt.Errorf("lshjoin: %w", err)
	}
	return ms.NH(), nil
}

// routeInsert routes vs to their home shards of src and returns the
// shard-encoded ids aligned with vs: the one routed-ingest path of every
// sharded front end and both cross-join sides.
func routeInsert(src source, vs []Vector) ([]int, error) {
	gids, err := lsh.RouteBatch(vs, src.shards(), src.ingest)
	if err != nil {
		return nil, err
	}
	ids := make([]int, len(gids))
	for i, id := range gids {
		ids[i] = int(id)
	}
	return ids, nil
}

// insertOne routes v to its home shard of src and returns its
// shard-encoded id.
func insertOne(src source, v Vector) (int, error) {
	s := lsh.RouteVector(v, src.shards())
	first, err := src.ingest(s, []Vector{v})
	return int(lsh.GroupID(s, first)), err
}

// localSource is the in-process source: a shard group ingesting under the
// Options.PublishEvery policy, with one durable store per shard when
// Options.Dir is set (nil stores in memory).
type localSource struct {
	*lsh.ShardGroup
	publishEvery int
	stores       []*persist.Store
	closed       atomic.Bool
}

// newLocalSource wraps g and its stores, applying opt's runtime policies:
// every shard — built, created or recovered — signs insert batches under
// opt's signing budget.
func newLocalSource(opt Options, g *lsh.ShardGroup, stores []*persist.Store) *localSource {
	for s := 0; s < g.S(); s++ {
		g.Shard(s).SetSignConfig(opt.signConfig())
	}
	if opt.CheckpointBytes > 0 {
		for _, st := range stores {
			st.SetCheckpointBytes(opt.CheckpointBytes)
		}
	}
	return &localSource{ShardGroup: g, publishEvery: opt.PublishEvery, stores: stores}
}

// capture publishes pending inserts shard by shard and returns the
// shard-snapshot vector; it never fails.
func (l *localSource) capture() (*lsh.GroupSnapshot, error) { return l.Capture(), nil }

func (l *localSource) shards() int { return l.S() }

// ingest appends vs to shard s — a single vector through Index.Insert, a
// batch through the batched signature engine — and cuts a version once the
// shard's pending delta reaches PublishEvery. The pending count is
// re-checked inside Snapshot under the writer lock, so concurrent inserts
// publish each delta exactly once. It never fails.
func (l *localSource) ingest(s int, vs []Vector) (int, error) {
	x := l.Shard(s)
	var first int
	if len(vs) == 1 {
		first = x.Insert(vs[0])
	} else {
		first = x.InsertBatch(vs)
	}
	if p := l.publishEvery; p > 0 && x.Pending() >= p {
		x.Snapshot()
	}
	return first, nil
}

// closeStores is the one close path of every durable local front end: it
// makes each shard of each side durable at its current version — publish,
// then checkpoint — and releases the stores. It returns the first error: a
// non-nil return means some earlier publish may not have reached disk and
// the checkpoint could not repair it. The first side's closed flag makes it
// idempotent; a side without stores closes trivially.
func closeStores(sides ...*localSource) error {
	if sides[0].stores == nil || !sides[0].closed.CompareAndSwap(false, true) {
		return nil
	}
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, l := range sides {
		for s, st := range l.stores {
			l.Shard(s).PublishAndThen(func(snap *lsh.Snapshot) { keep(st.Checkpoint(snap)) })
		}
	}
	for _, l := range sides {
		for _, st := range l.stores {
			keep(st.Close())
		}
	}
	if first != nil {
		return fmt.Errorf("lshjoin: close: %w", first)
	}
	return nil
}
