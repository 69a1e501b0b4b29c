package lshjoin

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"lshjoin/internal/core"
	"lshjoin/internal/exactjoin"
	"lshjoin/internal/faultfs"
	"lshjoin/internal/lsh"
	"lshjoin/internal/lsh/persist"
	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

// Vector is a sparse real-valued vector (sorted non-zero entries).
type Vector = vecmath.Vector

// Entry is one non-zero coordinate of a Vector.
type Entry = vecmath.Entry

// NewVector builds a Vector from entries (any order; duplicate dimensions
// are summed, zeros dropped, non-finite weights rejected).
func NewVector(entries []Entry) (Vector, error) { return vecmath.New(entries) }

// BinaryVector builds a set-of-words vector: weight 1 on each distinct dim.
func BinaryVector(dims []uint32) Vector { return vecmath.FromDims(dims) }

// Cosine returns the cosine similarity of two vectors in [-1, 1].
func Cosine(u, v Vector) float64 { return vecmath.Cosine(u, v) }

// Jaccard returns the Jaccard similarity of the vectors' supports.
func Jaccard(u, v Vector) float64 { return vecmath.Jaccard(u, v) }

// Measure selects the similarity measure (and with it the LSH family).
type Measure int

// Supported similarity measures.
const (
	// CosineSimilarity uses sign-random-projection LSH (Charikar).
	CosineSimilarity Measure = iota
	// JaccardSimilarity uses MinHash over vector supports.
	JaccardSimilarity
)

// Options configures a Collection.
type Options struct {
	// K is the number of hash functions concatenated per LSH table
	// (default 20, the paper's setting; PubMed-like dissimilar data prefers
	// ~5, see App. C.4).
	K int
	// Tables is ℓ, the number of LSH tables (default 1; >1 enables the
	// median and virtual-bucket estimators).
	Tables int
	// Seed drives all hashing and sampling (default 1).
	Seed uint64
	// Measure selects cosine (default) or Jaccard similarity.
	Measure Measure
	// PublishEvery, when > 0, makes Insert and InsertBatch publish a fresh
	// snapshot as soon as the pending delta reaches that many vectors:
	// 1 publishes per insert, larger values publish in size-bounded groups.
	// Publication is O(delta · log #buckets) through the persistent Fenwick
	// weight index, so per-insert publication stays affordable however many
	// buckets the tables hold. 0 (the default) keeps publish-on-read:
	// deltas accumulate until the next read on the Collection.
	PublishEvery int
	// Shards is the shard count S consumed by NewSharded and NewCrossJoin
	// (default 1): the key space is partitioned across S independent indexes
	// (per side, for a cross join) with consistent key-hash routing, inserts
	// on different shards never contend, and estimates merge per-shard
	// statistics. New ignores it — a Collection is always a single index.
	// NewSharded and NewCrossJoin with Shards == 1 behave draw-for-draw
	// identically to New and the static single-snapshot cross join.
	Shards int
	// Dir, when non-empty, makes the collection durable: New, NewSharded and
	// NewCrossJoin create a crash-safe store there (one sub-store per shard
	// for a sharded collection; two group stores under one cross manifest for
	// a cross join) and every published version is persisted — checkpointed
	// snapshots plus an fsynced delta log. Reopen with Open, OpenSharded or
	// OpenCrossJoin; call Close to checkpoint on shutdown. See the durability
	// section of the package documentation for the exact guarantees.
	Dir string
	// CheckpointBytes tunes the background checkpoint threshold of a durable
	// collection: once the delta-log bytes a recovery would replay exceed it,
	// the next publish switches to a fresh log and a background goroutine
	// checkpoints the published snapshot — the publish path itself never
	// writes a checkpoint. 0 keeps the store default (4 MiB); negative is
	// rejected. In-memory collections ignore it.
	CheckpointBytes int
	// Float32Signing switches cosine batch builds (and the single-vector
	// hashing that must agree with them) to the float32 projection lane:
	// half the signing cache footprint and memory bandwidth, at the cost of
	// occasional sign flips on near-orthogonal projections. The resulting
	// signatures are different — not worse — than the float64 lane's, so
	// the flag changes bucket contents while estimator guarantees hold
	// unchanged. Jaccard collections ignore it (MinHash is an integer
	// pipeline), and durable collections (Dir set) reject it for now.
	Float32Signing bool
	// SignPanelBytes caps the resident projection cache of a batch build.
	// When the fused dimension-major cache would exceed the budget, signing
	// streams the vocabulary in dimension-block panels and produces output
	// identical to the fused pass. 0 means the 64 MiB default; negative is
	// rejected.
	SignPanelBytes int
}

func (o *Options) fillDefaults() {
	if o.K == 0 {
		o.K = 20
	}
	if o.Tables == 0 {
		o.Tables = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Shards == 0 {
		o.Shards = 1
	}
}

// familyFor resolves the measure to its LSH family and similarity function.
func familyFor(opt Options) (lsh.Family, core.SimFunc, error) {
	switch opt.Measure {
	case CosineSimilarity:
		return lsh.NewSimHash(opt.Seed), vecmath.Cosine, nil
	case JaccardSimilarity:
		return lsh.NewMinHash(opt.Seed), vecmath.Jaccard, nil
	default:
		return nil, nil, fmt.Errorf("%w: unknown measure %d", ErrInvalidOptions, opt.Measure)
	}
}

// Collection is an indexed vector collection: the entry point for join size
// estimation, exact joins, and similarity search.
//
// A Collection is safe for concurrent use: Insert and InsertBatch append to
// the index's pending delta under a write lock, reads run against
// atomically-published immutable snapshots, and estimators bind to the
// snapshot current at their construction. An estimator therefore keeps
// answering — correctly, over its own version — no matter how many vectors
// arrive after it was built; construct a new estimator to observe newer
// data.
type Collection struct {
	opt    Options
	family lsh.Family
	sim    core.SimFunc
	index  *lsh.Index

	// Durable backing (nil for in-memory collections); closed flips once.
	store  *persist.Store
	closed atomic.Bool

	seedCtr atomic.Uint64

	// The exact joiner is rebuilt lazily whenever the index version moved.
	joinerMu  sync.Mutex
	joiner    *exactjoin.Joiner
	joinerVer uint64
}

// New indexes the vectors. The collection keeps a reference to the slice;
// callers must not mutate it afterwards. With Options.Dir set, a durable
// store is created there (ErrStoreExists if one already is) and every
// published version persists across restarts; reopen with Open.
func New(vectors []Vector, opt Options) (*Collection, error) {
	opt, err := opt.normalized()
	if err != nil {
		return nil, err
	}
	if len(vectors) < 2 {
		return nil, fmt.Errorf("lshjoin: need at least 2 vectors, got %d", len(vectors))
	}
	family, sim, err := familyFor(opt)
	if err != nil {
		return nil, err
	}
	index, err := lsh.BuildSigned(vectors, family, opt.K, opt.Tables, opt.signConfig())
	if err != nil {
		return nil, fmt.Errorf("lshjoin: %w", err)
	}
	c := &Collection{
		opt:    opt,
		family: family,
		sim:    sim,
		index:  index,
	}
	if opt.Dir != "" {
		if c.store, err = persist.Create(faultfs.OS{}, opt.Dir, index); err != nil {
			return nil, fmt.Errorf("lshjoin: %w", err)
		}
		applyStorePolicy(opt, c.store)
	}
	return c, nil
}

// snap publishes any pending inserts and returns the latest immutable view.
func (c *Collection) snap() *lsh.Snapshot { return c.index.Snapshot() }

// N returns the number of vectors (including all completed Inserts).
func (c *Collection) N() int { return c.snap().N() }

// Vector returns vector i.
func (c *Collection) Vector(i int) Vector { return c.snap().Data()[i] }

// K returns the per-table hash function count.
func (c *Collection) K() int { return c.opt.K }

// Tables returns the number of LSH tables ℓ.
func (c *Collection) Tables() int { return c.opt.Tables }

// IndexBytes estimates the LSH index size using the paper's §6.3 accounting
// (g values, bucket counts, vector ids).
func (c *Collection) IndexBytes() int64 { return c.snap().SizeBytes() }

// PairsSharingBucket returns N_H of table 0: the number of vector pairs
// co-located in some bucket — the quantity the extended LSH index maintains.
func (c *Collection) PairsSharingBucket() int64 { return c.snap().Table(0).NH() }

// Version returns the collection's publish version: it increments every
// time inserts become visible to new readers (1 for a fresh collection).
func (c *Collection) Version() uint64 { return c.snap().Version() }

// EstimateJoinSize estimates |{(u,v): sim(u,v) ≥ tau, u ≠ v}| with LSH-SS
// under the paper's default parameters (m_H = m_L = n, δ = log₂ n, safe
// lower bound). Each call draws fresh randomness; use Estimator for
// reproducible or repeated estimation.
func (c *Collection) EstimateJoinSize(tau float64) (float64, error) {
	est, err := c.Estimator(AlgoLSHSS)
	if err != nil {
		return 0, err
	}
	return est.Estimate(tau)
}

// Insert adds a vector to the collection and its LSH index (ℓ·k hash
// evaluations; bucket counts and N_H stay exact), returning the vector's
// id. The insert is visible to every subsequent read on this collection;
// estimators constructed earlier keep answering over the version they were
// built on. Safe to call concurrently with reads, estimates and other
// inserts. With Options.PublishEvery set, Insert also publishes once the
// pending delta reaches the policy size, so lock-free readers observe fresh
// versions without issuing reads of their own.
func (c *Collection) Insert(v Vector) int {
	id := c.index.Insert(v)
	c.maybePublish()
	return id
}

// InsertBatch inserts vectors in order and returns the id of the first.
// The batch is signed through the batched signature engine, so bulk loading
// costs far less than repeated Inserts, and readers observe the whole batch
// atomically at the next read (or immediately, under Options.PublishEvery).
func (c *Collection) InsertBatch(vs []Vector) int {
	first := c.index.InsertBatch(vs)
	c.maybePublish()
	return first
}

// maybePublish applies the size-based publication policy: cut a new version
// as soon as the pending delta reaches PublishEvery vectors. The pending
// count is re-checked inside Snapshot under the writer lock, so concurrent
// inserts publish each delta exactly once.
func (c *Collection) maybePublish() {
	if p := c.opt.PublishEvery; p > 0 && c.index.Pending() >= p {
		c.index.Snapshot()
	}
}

// EstimateJoinSizeCurve estimates the whole selectivity curve J(τ) for a
// grid of thresholds from one shared LSH-SS sampling pass — what an
// optimizer costing a similarity predicate at several candidate thresholds
// wants. The result aligns with taus and is monotone non-increasing after
// sorting taus ascending.
func (c *Collection) EstimateJoinSizeCurve(taus []float64) ([]float64, error) {
	inner, err := core.NewLSHSS(c.snap(), c.sim)
	if err != nil {
		return nil, err
	}
	return inner.EstimateCurve(taus, xrand.New(c.nextSeed()))
}

// exactJoiner returns the inverted-index joiner for the current version,
// rebuilding it only when inserts have been published since the last call.
func (c *Collection) exactJoiner() (*exactjoin.Joiner, *lsh.Snapshot) {
	s := c.snap()
	c.joinerMu.Lock()
	defer c.joinerMu.Unlock()
	if c.joiner != nil && c.joinerVer == s.Version() {
		return c.joiner, s
	}
	j := exactjoin.NewJoiner(s.Data())
	// Only move the cache forward: a reader that raced publication and holds
	// an older version gets a correct one-off joiner without evicting the
	// newer cached one (no rebuild ping-pong between concurrent readers).
	if c.joiner == nil || s.Version() > c.joinerVer {
		c.joiner, c.joinerVer = j, s.Version()
	}
	return j, s
}

// ExactJoinSize computes the true join size with the inverted-index exact
// joiner — O(Σ df²), for ground truth and small-to-medium collections.
func (c *Collection) ExactJoinSize(tau float64) (int64, error) {
	if c.opt.Measure != CosineSimilarity {
		return bruteCount(c.snap().Data(), c.sim, tau)
	}
	j, _ := c.exactJoiner()
	return j.CountAt(tau)
}

// bruteJoin calls emit for every pair i < j of data with sim ≥ tau, in
// lexicographic order: the measure-agnostic exact join (O(n²) similarity
// evaluations) behind every front end's non-cosine ExactJoinSize and
// JoinPairs. tau is validated as the estimators validate it, NaN included.
func bruteJoin(data []Vector, sim core.SimFunc, tau float64, emit func(i, j int, s float64)) error {
	if math.IsNaN(tau) || tau <= 0 || tau > 1 {
		return fmt.Errorf("lshjoin: threshold must be in (0, 1], got %v", tau)
	}
	for i := range data {
		for j := i + 1; j < len(data); j++ {
			if s := sim(data[i], data[j]); s >= tau {
				emit(i, j, s)
			}
		}
	}
	return nil
}

// bruteCount is bruteJoin's pair count.
func bruteCount(data []Vector, sim core.SimFunc, tau float64) (int64, error) {
	var count int64
	err := bruteJoin(data, sim, tau, func(int, int, float64) { count++ })
	return count, err
}

// JoinPair is one similarity join result.
type JoinPair struct {
	U, V int     // vector indices, U < V
	Sim  float64 // their similarity
}

// JoinPairs materializes the exact similarity join at tau. Cosine
// collections use the All-Pairs prefix-filtered joiner; other measures fall
// back to the brute-force pair scan (O(n²) similarity evaluations), so the
// API is complete across measures.
func (c *Collection) JoinPairs(tau float64) ([]JoinPair, error) {
	if c.opt.Measure != CosineSimilarity {
		var out []JoinPair
		err := bruteJoin(c.snap().Data(), c.sim, tau, func(i, j int, s float64) {
			out = append(out, JoinPair{U: i, V: j, Sim: s})
		})
		return out, err
	}
	j, _ := c.exactJoiner()
	raw, err := j.Pairs(tau)
	if err != nil {
		return nil, err
	}
	out := make([]JoinPair, len(raw))
	for i, p := range raw {
		out[i] = JoinPair{U: int(p.U), V: int(p.V), Sim: p.Sim}
	}
	return out, nil
}

// SearchSimilar returns indices of indexed vectors with sim(v, ·) ≥ tau
// among the LSH candidates of v — approximate search with the usual LSH
// false-negative caveat. The search runs lock-free against the latest
// published version.
func (c *Collection) SearchSimilar(v Vector, tau float64) []int {
	ids := c.snap().Search(v, tau)
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}

// nextSeed derives a fresh deterministic seed for estimator construction.
func (c *Collection) nextSeed() uint64 {
	return xrand.Mix2(c.opt.Seed^0xE57AB1E, c.seedCtr.Add(1))
}
