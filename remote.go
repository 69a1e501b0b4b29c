package lshjoin

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"lshjoin/internal/lsh"
	"lshjoin/internal/lsh/persist"
	"lshjoin/internal/shardrpc"
	"lshjoin/internal/xrand"
)

// Typed network errors, re-exported so callers can errors.Is against them
// without importing internals.
var (
	// ErrShardUnavailable reports a shard server that could not be reached
	// or did not answer within the call timeout, after the configured
	// retries. No partial estimate is ever served: the whole call fails.
	ErrShardUnavailable = shardrpc.ErrUnavailable
	// ErrShardProtocol reports a shard server speaking the protocol wrong:
	// corrupt frames, malformed payloads, mismatched responses, or an
	// identity change across a reconnect.
	ErrShardProtocol = shardrpc.ErrProtocol
)

// RemoteOption tunes a RemoteCollection's transport.
type RemoteOption func(*remoteOpts)

type remoteOpts struct {
	rpc shardrpc.ClientOptions
}

// WithDialTimeout bounds connection establishment per shard (default 5s).
func WithDialTimeout(d time.Duration) RemoteOption {
	return func(o *remoteOpts) { o.rpc.DialTimeout = d }
}

// WithCallTimeout bounds one request/response exchange per shard (default
// 10s). A shard that does not answer within it is unavailable; calls never
// hang.
func WithCallTimeout(d time.Duration) RemoteOption {
	return func(o *remoteOpts) { o.rpc.CallTimeout = d }
}

// WithRetryPolicy sets how many times a transiently failed idempotent call
// is re-attempted (retries ≥ 0; 0 disables retries) and the backoff before
// the first retry, doubling per attempt.
func WithRetryPolicy(retries int, backoff time.Duration) RemoteOption {
	return func(o *remoteOpts) {
		if retries <= 0 {
			o.rpc = o.rpc.WithNoRetries()
		} else {
			o.rpc.Retries = retries
		}
		o.rpc.Backoff = backoff
	}
}

// RemoteCollection is the coordinator side of network shard serving: the
// estimate surface of a ShardedCollection over S shard servers instead of S
// in-process shards. addrs[s] serves shard s of the consistent-hash key
// space — Insert routes with the same jump-hash routing as NewSharded, and
// reads bring the coordinator's per-shard index copies up to date (a
// not-modified round trip for an unchanged shard, the appended vectors for
// a grown one, a full snapshot only on first fetch or after a server
// restart), reassemble them into the group view, and run the merged
// estimators locally with the same deterministic seed-stream discipline.
//
// A distributed estimate is therefore bit-equal to the in-process one: for
// the same vectors, options and estimator seeds, every algorithm returns
// exactly what an equivalent ShardedCollection returns, draw for draw (the
// remote_test property suite pins this at S ∈ {1, 4}). The guarantee rests
// on two proven equivalences: a snapshot restored from its wire encoding is
// sampling-equivalent to the original (the durability layer's restore
// property), and ingest publishes the same buckets as a batch build however
// the publishes are grouped — on the servers and on the coordinator's
// copies alike.
//
// Failure semantics: any shard failing — timeout, transport loss after
// retries, or protocol violation — fails the whole read with a typed error
// (ErrShardUnavailable, ErrShardProtocol, or a server rejection). There are
// no partial estimates over a subset of shards. All methods are safe for
// unsynchronized concurrent use.
type RemoteCollection struct {
	*front
	remote *remoteSource
	closed atomic.Bool
}

// remoteSource is the coordinator's source: one client per shard server
// and the coordinator's copy of each shard, checked against the hashing
// identity (family, k, ℓ) the handshake agreed on.
type remoteSource struct {
	family  lsh.Family
	k, ell  int
	sign    lsh.SignConfig // how the copies sign the vectors a delta ships
	clients []*shardrpc.Client
	copies  []remoteShard
}

// remoteShard is the coordinator's copy of one shard: the index mirrored
// from its server and the server epoch it was fetched under. mu is held
// across a fetch and its apply. A nil idx holds nothing, so the next fetch
// is a full one.
type remoteShard struct {
	mu    sync.Mutex
	epoch uint64
	idx   *lsh.Index
}

// Connect dials the shard servers and performs the handshakes. Options
// follow the adopt-or-assert rule of Open: hashing fields (K, Tables, Seed,
// Measure) left zero adopt the servers' values, non-zero fields are
// assertions that must match every server (ErrInvalidOptions otherwise).
// Shards, if set, must equal len(addrs). Dir is rejected — a remote
// collection has no local store. All servers must share one hashing
// identity; a mismatch reports ErrInvalidOptions naming the shard.
func Connect(addrs []string, opt Options, ropts ...RemoteOption) (*RemoteCollection, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("%w: Connect needs at least one shard address", ErrInvalidOptions)
	}
	if len(addrs) > lsh.MaxShards {
		return nil, fmt.Errorf("%w: %d shard addresses exceed the maximum %d", ErrInvalidOptions, len(addrs), lsh.MaxShards)
	}
	if len(addrs) > 1 && bits.UintSize < 64 {
		return nil, fmt.Errorf("lshjoin: more than one shard requires a 64-bit platform (vector ids pack shard and local index into one int)")
	}
	opt, err := opt.validated()
	if err != nil {
		return nil, err
	}
	if opt.Dir != "" {
		return nil, fmt.Errorf("%w: Dir is not supported on a remote collection (durability lives on the shard servers)", ErrInvalidOptions)
	}
	if opt.Shards != 0 && opt.Shards != len(addrs) {
		return nil, fmt.Errorf("%w: Shards = %d but %d shard addresses were given", ErrInvalidOptions, opt.Shards, len(addrs))
	}
	var ro remoteOpts
	for _, apply := range ropts {
		apply(&ro)
	}
	clients := make([]*shardrpc.Client, 0, len(addrs))
	closeAll := func() {
		for _, c := range clients {
			c.Close()
		}
	}
	for _, addr := range addrs {
		c, err := shardrpc.Dial(addr, ro.rpc)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("lshjoin: shard %d (%s): %w", len(clients), addr, err)
		}
		clients = append(clients, c)
	}
	h0 := clients[0].Hello()
	for s, c := range clients {
		if h := c.Hello(); h.Family != h0.Family || h.K != h0.K || h.Ell != h0.Ell {
			closeAll()
			return nil, fmt.Errorf("%w: shard %d (%s) hashes with %+v k=%d ℓ=%d, shard 0 with %+v k=%d ℓ=%d",
				ErrInvalidOptions, s, c.Addr(), h.Family, h.K, h.Ell, h0.Family, h0.K, h0.Ell)
		}
	}
	if opt, err = adopt(opt, "the shard servers", ErrShardProtocol, h0.Family, h0.K, h0.Ell, len(addrs)); err != nil {
		closeAll()
		return nil, err
	}
	family, _, err := familyFor(opt)
	if err != nil {
		closeAll()
		return nil, err
	}
	remote := &remoteSource{family: family, k: opt.K, ell: opt.Tables, sign: opt.signConfig(), clients: clients, copies: make([]remoteShard, len(addrs))}
	return &RemoteCollection{front: newFront(opt, family, remote), remote: remote}, nil
}

// Close closes every shard connection. The shard servers themselves — and
// any durable state they hold — are unaffected. Idempotent.
func (c *RemoteCollection) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	var first error
	for _, cl := range c.remote.clients {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Shards returns the shard count S (one per address).
func (c *RemoteCollection) Shards() int { return c.remote.shards() }

// K returns the per-table hash function count.
func (c *RemoteCollection) K() int { return c.opt.K }

// Tables returns the number of LSH tables ℓ.
func (c *RemoteCollection) Tables() int { return c.opt.Tables }

// ShardOf returns the home shard encoded in a vector id returned by Insert.
func (c *RemoteCollection) ShardOf(id int) int { return shardOf(id) }

// fetchShard brings shard s's copy up to the server's current state and
// returns its snapshot. Under the server epoch the copy was fetched in, an
// unchanged shard costs one not-modified round trip and a grown one ships
// only the vectors appended since the copy's count, which the coordinator
// signs and publishes at the server's version; otherwise the server sends
// its full snapshot. The shard's lock is held across fetch and apply, so
// the copy only moves along the server's history. A delta that leaves the
// copy disagreeing with the server's n or per-table N_H — or any other
// protocol violation — drops the copy, so the next read refetches in full.
func (c *remoteSource) fetchShard(s int) (*lsh.Snapshot, error) {
	sh := &c.copies[s]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	snap, err := c.applyFetch(s, sh)
	if errors.Is(err, ErrShardProtocol) {
		sh.idx, sh.epoch = nil, 0
	}
	return snap, err
}

// applyFetch performs fetchShard's exchange and apply. Callers hold sh.mu.
func (c *remoteSource) applyFetch(s int, sh *remoteShard) (*lsh.Snapshot, error) {
	var have *lsh.Snapshot
	var haveVer uint64
	haveN := 0
	if sh.idx != nil {
		have = sh.idx.Current()
		haveVer, haveN = have.Version(), have.N()
	}
	f, err := c.clients[s].Delta(sh.epoch, haveVer, haveN)
	if err != nil {
		return nil, err
	}
	switch f.Kind {
	case shardrpc.FetchNotModified:
		if have == nil || f.Version != haveVer {
			return nil, fmt.Errorf("shard answered not-modified for version %d we do not hold: %w", f.Version, ErrShardProtocol)
		}
		return have, nil
	case shardrpc.FetchDelta:
		d := f.Delta
		if have == nil || f.Version <= haveVer || len(d.Vectors) == 0 || d.N != haveN+len(d.Vectors) {
			return nil, fmt.Errorf("delta to v%d with %d vectors (n %d) does not extend our v%d with n %d: %w",
				f.Version, len(d.Vectors), d.N, haveVer, haveN, ErrShardProtocol)
		}
		sh.idx.InsertBatch(d.Vectors)
		snap, err := sh.idx.PublishAt(f.Version)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", err, ErrShardProtocol)
		}
		for t, nh := range d.TableNH {
			if got := snap.Table(t).NH(); got != nh {
				return nil, fmt.Errorf("delta applied to N_H %d in table %d, server has %d: %w", got, t, nh, ErrShardProtocol)
			}
		}
		return snap, nil
	}
	idx, err := persist.DecodeSnapshot(f.Blob)
	if err != nil {
		return nil, fmt.Errorf("snapshot blob: %v: %w", err, ErrShardProtocol)
	}
	snap := idx.Current()
	if snap.Version() != f.Version {
		return nil, fmt.Errorf("snapshot blob carries version %d, response header %d: %w", snap.Version(), f.Version, ErrShardProtocol)
	}
	if snap.Family() != c.family || snap.K() != c.k || snap.L() != c.ell {
		return nil, fmt.Errorf("snapshot blob hashes with a different identity: %w", ErrShardProtocol)
	}
	idx.SetSignConfig(c.sign)
	sh.idx, sh.epoch = idx, f.Epoch
	return snap, nil
}

// capture fetches the current shard-snapshot vector — the remote analogue
// of ShardGroup.Capture. Shards are fetched in parallel; unchanged shards
// cost one not-modified round trip, grown ones a delta. Any shard failing
// fails the capture with that shard's typed error.
func (c *remoteSource) capture() (*lsh.GroupSnapshot, error) {
	S := len(c.clients)
	snaps := make([]*lsh.Snapshot, S)
	errs := make([]error, S)
	var wg sync.WaitGroup
	for s := 0; s < S; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			snaps[s], errs[s] = c.fetchShard(s)
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("lshjoin: shard %d (%s): %w", s, c.clients[s].Addr(), err)
		}
	}
	gs, err := lsh.NewGroupSnapshot(snaps)
	if err != nil {
		return nil, fmt.Errorf("lshjoin: %v: %w", err, ErrShardProtocol)
	}
	return gs, nil
}

func (c *remoteSource) shards() int { return len(c.clients) }

// ingest streams vs to shard s; ingest is not replayed after a failure
// that may have reached the server.
func (c *remoteSource) ingest(s int, vs []Vector) (int, error) {
	first, _, err := c.clients[s].Ingest(vs)
	if err != nil {
		return 0, fmt.Errorf("lshjoin: shard %d (%s): %w", s, c.clients[s].Addr(), err)
	}
	return first, nil
}

// N returns the total vector count across shards (including every
// acknowledged Insert).
func (c *RemoteCollection) N() (int, error) { return c.n() }

// Version returns the summed per-shard publish version, as
// ShardedCollection.Version does. For the vector itself see ShardVersions.
func (c *RemoteCollection) Version() (uint64, error) { return c.version() }

// ShardVersions returns the per-shard publish versions of the latest
// captured shard-snapshot vector.
func (c *RemoteCollection) ShardVersions() ([]uint64, error) { return c.shardVersions() }

// IndexBytes estimates the total LSH index size across shards using the
// paper's §6.3 accounting.
func (c *RemoteCollection) IndexBytes() (int64, error) { return c.indexBytes() }

// PairsSharingBucket returns the merged N_H of table 0 — per-shard intra
// counts plus cross-shard bipartite counts, exactly the N_H a single index
// over the union corpus would maintain.
func (c *RemoteCollection) PairsSharingBucket() (int64, error) { return c.pairsSharingBucket() }

// Vector returns the vector with the given id (as returned by Insert).
func (c *RemoteCollection) Vector(id int) (Vector, error) { return c.vector(id) }

// Insert routes v to its home shard — the same pure content-key routing an
// in-process ShardedCollection uses — and streams it there, returning the
// shard-encoded vector id. Inserts are not replayed after transient
// failures that may have reached the server; on error the caller knows the
// insert may or may not have been applied.
func (c *RemoteCollection) Insert(v Vector) (int, error) { return insertOne(c.remote, v) }

// InsertBatch routes each vector to its home shard, streams the per-shard
// runs, and returns per-vector ids aligned with vs — the id assignment an
// in-process ShardedCollection.InsertBatch makes for the same vectors.
func (c *RemoteCollection) InsertBatch(vs []Vector) ([]int, error) { return routeInsert(c.remote, vs) }

// Estimator constructs the requested algorithm over the current distributed
// state: per-shard snapshots are fetched (or version-validated against the
// cache), reassembled into the group view, and the merged estimator binds
// to it — exactly the construction an in-process ShardedCollection
// performs, including the seed stream, so estimates are draw-for-draw
// bit-equal for equal data, options and estimator seeds.
func (c *RemoteCollection) Estimator(algo Algorithm, opts ...EstimatorOption) (Estimator, error) {
	return c.estimator(algo, opts)
}

// EstimateJoinSize estimates the join size with merged LSH-SS under the
// paper's default parameters. Each call draws fresh randomness; use
// Estimator for reproducible or repeated estimation.
func (c *RemoteCollection) EstimateJoinSize(tau float64) (float64, error) {
	return c.estimateJoinSize(tau)
}

// EstimateJoinSizeCurve estimates the selectivity curve J(τ) for a grid of
// thresholds from one shared merged-LSH-SS sampling pass.
func (c *RemoteCollection) EstimateJoinSizeCurve(taus []float64) ([]float64, error) {
	return c.estimateJoinSizeCurve(taus)
}

// SearchSimilar returns ids of indexed vectors with sim(v, ·) ≥ tau among
// the LSH candidates of v, searching every shard's fetched snapshot.
// Results use shard-encoded ids in shard order, identical to
// ShardedCollection.SearchSimilar over the same data.
func (c *RemoteCollection) SearchSimilar(v Vector, tau float64) ([]int, error) {
	return c.searchSimilar(v, tau)
}

// ExactJoinSize computes the true join size over the fetched union corpus
// (inverted-index joiner for cosine, brute force otherwise). The corpus
// ships once per changed shard and the count runs locally.
func (c *RemoteCollection) ExactJoinSize(tau float64) (int64, error) { return c.exactJoinSize(tau) }

// VerifyShardSampling cross-checks the reconstruction of shard s: it draws
// draws weighted pairs from table t on the server and the same draws from
// the locally reconstructed snapshot with one shared seed, and reports any
// disagreement as ErrShardProtocol. Agreement is exactly the restore
// draw-for-draw guarantee, observed end to end over the wire. The check
// retries once if the shard publishes between the fetch and the sample.
func (c *RemoteCollection) VerifyShardSampling(s, t, draws int, seed uint64) error {
	if s < 0 || s >= len(c.remote.clients) {
		return fmt.Errorf("lshjoin: shard %d out of range [0, %d)", s, len(c.remote.clients))
	}
	for attempt := 0; ; attempt++ {
		gs, err := c.remote.capture()
		if err != nil {
			return err
		}
		if t < 0 || t >= gs.L() {
			return fmt.Errorf("lshjoin: table %d out of range [0, %d)", t, gs.L())
		}
		snap := gs.Snap(s)
		version, pairs, err := c.remote.clients[s].SampleBatch(t, draws, seed)
		if err != nil {
			return fmt.Errorf("lshjoin: shard %d (%s): %w", s, c.remote.clients[s].Addr(), err)
		}
		if version != snap.Version() {
			if attempt == 0 {
				continue // the shard published between the two calls; refetch
			}
			return fmt.Errorf("lshjoin: shard %d keeps publishing during verification (snapshot v%d, sample v%d)", s, snap.Version(), version)
		}
		rng := xrand.New(seed)
		tab := snap.Table(t)
		for d := 0; d < draws; d++ {
			i, j, ok := tab.SamplePair(rng)
			if !ok {
				if d != len(pairs) {
					return fmt.Errorf("lshjoin: shard %d table %d: local stream ends at draw %d, server sent %d pairs: %w", s, t, d, len(pairs), ErrShardProtocol)
				}
				return nil
			}
			if d >= len(pairs) || int32(i) != pairs[d][0] || int32(j) != pairs[d][1] {
				return fmt.Errorf("lshjoin: shard %d table %d draw %d: local (%d, %d) disagrees with server: %w", s, t, d, i, j, ErrShardProtocol)
			}
		}
		if len(pairs) != draws {
			return fmt.Errorf("lshjoin: shard %d table %d: server sent %d pairs for %d draws: %w", s, t, len(pairs), draws, ErrShardProtocol)
		}
		return nil
	}
}
