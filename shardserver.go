package lshjoin

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"

	"lshjoin/internal/lsh"
	"lshjoin/internal/lsh/persist"
	"lshjoin/internal/shardrpc"
)

// ShardServer owns one shard of a distributed collection — a single LSH
// index, optionally durable via Options.Dir — and serves it over the wire
// protocol (see DESIGN.md): streamed ingest, snapshot fetches with a
// not-modified fast path, summary digests and server-side sample batches.
// Point a RemoteCollection at S shard servers sharing one hashing identity
// and its estimates are bit-equal to an in-process ShardedCollection over
// the same vectors.
//
// With Options.Dir set, the server creates a crash-safe store there (or
// recovers the existing one under the usual adopt-or-assert option rules),
// and every version published while serving persists through the store's
// write hook — network serving and durability compose with no extra code.
type ShardServer struct {
	opt    Options
	local  *localSource // the one shard, and its store when durable
	srv    *shardrpc.Server
	closed atomic.Bool
}

// NewShardServer builds the server owning one empty (or recovered) shard.
// Options follow New/Open: with Dir unset, K/Tables/Seed/Measure configure a
// fresh in-memory index; with Dir set, an existing store is recovered
// (adopt-or-assert on the hashing fields) or a fresh one created.
// Shards, if set, must be 1 — one server owns one shard; run S processes
// for S shards. A directory holding a store of more shards reports
// ErrInvalidOptions, one holding a cross join ErrStoreExists. Call Serve to
// accept connections.
func NewShardServer(opt Options) (*ShardServer, error) {
	if opt.Shards > 1 {
		return nil, fmt.Errorf("%w: Shards = %d, but a shard server owns exactly one shard (run one server per shard)", ErrInvalidOptions, opt.Shards)
	}
	opt, err := opt.validated()
	if err != nil {
		return nil, err
	}
	if opt.Dir != "" {
		o, group, stores, err := openGroup(opt.Dir, opt, true)
		if err == nil {
			return newShardServer(o, group, stores), nil
		}
		if !errors.Is(err, ErrNoStore) {
			return nil, err
		}
	}
	if opt, err = opt.normalized(); err != nil {
		return nil, err
	}
	group, stores, err := createGroup(nil, opt)
	if err != nil {
		return nil, err
	}
	return newShardServer(opt, group, stores), nil
}

// newShardServer serves the one-shard group g, and its store when durable.
func newShardServer(opt Options, g *lsh.ShardGroup, stores []*persist.Store) *ShardServer {
	return &ShardServer{
		opt:   opt,
		local: newLocalSource(opt, g, stores),
		srv:   shardrpc.NewServer(g.Shard(0), shardrpc.ServerOptions{PublishEvery: opt.PublishEvery}),
	}
}

// Serve accepts connections on ln until Close, blocking; it returns nil
// after Close, or the first accept error. Run it on its own goroutine.
func (s *ShardServer) Serve(ln net.Listener) error { return s.srv.Serve(ln) }

// Close stops serving, waits for in-flight requests to drain, and — for a
// durable server — publishes pending ingest, checkpoints, and releases the
// store (returning its sticky error, like Collection.Close). Idempotent.
func (s *ShardServer) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := s.srv.Close()
	if cerr := closeStores(s.local); cerr != nil {
		return cerr
	}
	return err
}

// InsertBatch bulk-loads vectors locally — no network round trip — for the
// process that owns the shard, returning the first assigned local id. The
// coordinator-side routing contract still applies: load a vector only into
// the shard lsh.RouteVector assigns it to, or coordinated ids will not
// match the in-process collection's.
func (s *ShardServer) InsertBatch(vs []Vector) int { return must(s.local.ingest(0, vs)) }

// N returns the shard's vector count, pending ingest included once
// published (this publishes, like any read on a Collection).
func (s *ShardServer) N() int { return s.local.Capture().N() }

// K returns the per-table hash function count.
func (s *ShardServer) K() int { return s.opt.K }

// Tables returns the number of LSH tables ℓ.
func (s *ShardServer) Tables() int { return s.opt.Tables }
