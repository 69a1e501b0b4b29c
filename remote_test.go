package lshjoin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lshjoin/internal/lsh"
	"lshjoin/internal/shardrpc"
)

// startShardServers spins up S in-memory shard servers on loopback sharing
// one hashing identity and returns their addresses.
func startShardServers(t *testing.T, S int, opt Options) []string {
	t.Helper()
	addrs := make([]string, S)
	for s := 0; s < S; s++ {
		srv, err := NewShardServer(opt)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[s] = ln.Addr().String()
		errc := make(chan error, 1)
		go func() { errc <- srv.Serve(ln) }()
		t.Cleanup(func() {
			if err := srv.Close(); err != nil {
				t.Errorf("close shard server: %v", err)
			}
			if err := <-errc; err != nil {
				t.Errorf("serve: %v", err)
			}
		})
	}
	return addrs
}

// fastRemote keeps degradation tests quick: short timeouts, no retries.
func fastRemote() []RemoteOption {
	return []RemoteOption{
		WithDialTimeout(2 * time.Second),
		WithCallTimeout(300 * time.Millisecond),
		WithRetryPolicy(0, time.Millisecond),
	}
}

// The distributed draw-for-draw property, end to end over the wire: a
// RemoteCollection over S shard servers answers bit-equal to an in-process
// ShardedCollection with the same options and vectors — ids, every
// algorithm's seeded estimates, the unseeded seed stream, curves, searches
// and exact joins — at S = 1 and S = 4, for both measures. Reads run
// between insert rounds, so every read after the first applies a delta (or
// a not-modified answer) to the coordinator's shard copies; each round is
// also checked against a fresh Connect, whose first read ships full
// snapshots. Publish versions are NOT compared: a Build-constructed shard
// sits at version 1 where an ingest-loaded one sits at 2, and estimates are
// content-determined either way.
func TestRemoteMatchesShardedDrawForDraw(t *testing.T) {
	for _, S := range []int{1, 4} {
		for _, measure := range []Measure{CosineSimilarity, JaccardSimilarity} {
			t.Run(fmt.Sprintf("s=%d measure=%d", S, measure), func(t *testing.T) {
				vecs := fixtureVectors(t, 460)
				opt := Options{K: 6, Tables: 3, Seed: 5, Measure: measure}
				addrs := startShardServers(t, S, opt)
				rem, err := Connect(addrs, opt)
				if err != nil {
					t.Fatal(err)
				}
				defer rem.Close()
				sopt := opt
				sopt.Shards = S
				shrd, err := NewSharded(vecs[:400], sopt)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := rem.InsertBatch(vecs[:400]); err != nil {
					t.Fatal(err)
				}
				queries := []Vector{vecs[0], vecs[17], vecs[399], vecs[459]}
				assertRemoteReadsAgree(t, "preload", shrd, rem, addrs, opt, queries)
				// The first read took full snapshots; from here on every read
				// must reuse the coordinator's shard copies (delta or
				// not-modified), never replace them. A second coordinator
				// reads after every insert, so the servers publish several
				// versions between two reads of rem.
				copies := remoteShardCopies(rem)
				other, err := Connect(addrs, opt)
				if err != nil {
					t.Fatal(err)
				}
				defer other.Close()
				for round, lo := range []int{400, 420} {
					for i := lo; i < lo+20; i++ {
						a := shrd.Insert(vecs[i])
						b, err := rem.Insert(vecs[i])
						if err != nil {
							t.Fatal(err)
						}
						if _, err := other.N(); err != nil {
							t.Fatal(err)
						}
						if a != b {
							t.Fatalf("insert %d: id %d vs %d", i, a, b)
						}
						if rem.ShardOf(b) != shrd.ShardOf(a) {
							t.Fatalf("insert %d: shard %d vs %d", i, rem.ShardOf(b), shrd.ShardOf(a))
						}
						if i%7 == 0 {
							assertRemoteReadsAgree(t, fmt.Sprintf("insert %d", i), shrd, rem, addrs, opt, queries)
						}
					}
					assertRemoteReadsAgree(t, fmt.Sprintf("round %d", round), shrd, rem, addrs, opt, queries)
				}
				ca := shrd.InsertBatch(vecs[440:])
				cb, err := rem.InsertBatch(vecs[440:])
				if err != nil {
					t.Fatal(err)
				}
				for i := range ca {
					if ca[i] != cb[i] {
						t.Fatalf("batch id %d: %d vs %d", i, ca[i], cb[i])
					}
				}
				assertRemoteReadsAgree(t, "batch", shrd, rem, addrs, opt, queries)
				if got := remoteShardCopies(rem); !slices.Equal(got, copies) {
					t.Fatalf("a read after the first replaced a shard copy instead of applying a delta")
				}
				ib, err := rem.IndexBytes()
				if err != nil {
					t.Fatal(err)
				}
				if ib != shrd.IndexBytes() {
					t.Fatalf("IndexBytes %d vs %d", ib, shrd.IndexBytes())
				}
				// The unseeded seed streams align too: the curve call consumes
				// draw 1 on each side, the estimator after it draw 2.
				taus := []float64{0.5, 0.7, 0.9}
				curveA, err := shrd.EstimateJoinSizeCurve(taus)
				if err != nil {
					t.Fatal(err)
				}
				curveB, err := rem.EstimateJoinSizeCurve(taus)
				if err != nil {
					t.Fatal(err)
				}
				for i := range taus {
					if curveA[i] != curveB[i] {
						t.Fatalf("curve[%d]: %v vs %v", i, curveA[i], curveB[i])
					}
				}
				ea, err := shrd.Estimator(AlgoLSHSS)
				if err != nil {
					t.Fatal(err)
				}
				eb, err := rem.Estimator(AlgoLSHSS)
				if err != nil {
					t.Fatal(err)
				}
				va, err := ea.Estimate(0.8)
				if err != nil {
					t.Fatal(err)
				}
				vb, err := eb.Estimate(0.8)
				if err != nil {
					t.Fatal(err)
				}
				if va != vb {
					t.Fatalf("unseeded LSH-SS: %v vs %v", va, vb)
				}
				xa, err := shrd.ExactJoinSize(0.8)
				if err != nil {
					t.Fatal(err)
				}
				xb, err := rem.ExactJoinSize(0.8)
				if err != nil {
					t.Fatal(err)
				}
				if xa != xb {
					t.Fatalf("exact join %d vs %d", xa, xb)
				}
				for _, id := range []int{ca[0], cb[len(cb)-1]} {
					v, err := rem.Vector(id)
					if err != nil {
						t.Fatal(err)
					}
					if v.String() != shrd.Vector(id).String() {
						t.Fatalf("Vector(%d) differs", id)
					}
				}
				// Server-side sampling reproduces the locally reconstructed
				// stream draw for draw — the restore property observed over
				// the wire.
				for s := 0; s < S; s++ {
					if err := rem.VerifyShardSampling(s, 0, 50, 1234); err != nil {
						t.Fatal(err)
					}
				}
				// Shard versions advanced past the cache: the refetch path
				// (not-modified misses) must keep answering equally.
				shrd.InsertBatch(vecs[:30])
				if _, err := rem.InsertBatch(vecs[:30]); err != nil {
					t.Fatal(err)
				}
				ea, err = shrd.Estimator(AlgoLSHSS, WithEstimatorSeed(97))
				if err != nil {
					t.Fatal(err)
				}
				eb, err = rem.Estimator(AlgoLSHSS, WithEstimatorSeed(97))
				if err != nil {
					t.Fatal(err)
				}
				va, err = ea.Estimate(0.8)
				if err != nil {
					t.Fatal(err)
				}
				vb, err = eb.Estimate(0.8)
				if err != nil {
					t.Fatal(err)
				}
				if va != vb {
					t.Fatalf("post-growth LSH-SS: %v vs %v", va, vb)
				}
			})
		}
	}
}

// assertRemoteReadsAgree requires rem and a freshly connected coordinator
// to answer N, N_H, every algorithm's seeded estimates and searches for
// queries bit-equal to the in-process collection.
func assertRemoteReadsAgree(t *testing.T, step string, shrd *ShardedCollection, rem *RemoteCollection, addrs []string, opt Options, queries []Vector) {
	t.Helper()
	fresh, err := Connect(addrs, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	vers, err := rem.ShardVersions()
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	freshVers, err := fresh.ShardVersions()
	if err != nil {
		t.Fatalf("%s fresh: %v", step, err)
	}
	if !slices.Equal(vers, freshVers) {
		t.Fatalf("%s: shard versions %v, fresh coordinator %v", step, vers, freshVers)
	}
	for _, side := range []struct {
		name string
		rc   *RemoteCollection
	}{{"delta", rem}, {"fresh", fresh}} {
		n, err := side.rc.N()
		if err != nil {
			t.Fatalf("%s %s: %v", step, side.name, err)
		}
		if n != shrd.N() {
			t.Fatalf("%s %s: N %d vs %d", step, side.name, n, shrd.N())
		}
		nh, err := side.rc.PairsSharingBucket()
		if err != nil {
			t.Fatalf("%s %s: %v", step, side.name, err)
		}
		if nh != shrd.PairsSharingBucket() {
			t.Fatalf("%s %s: N_H %d vs %d", step, side.name, nh, shrd.PairsSharingBucket())
		}
		for _, algo := range Algorithms() {
			ea, err := shrd.Estimator(algo, WithEstimatorSeed(41))
			if err != nil {
				t.Fatalf("%s %s: %v", step, algo, err)
			}
			eb, err := side.rc.Estimator(algo, WithEstimatorSeed(41))
			if err != nil {
				t.Fatalf("%s %s %s: %v", step, side.name, algo, err)
			}
			for _, tau := range []float64{0.6, 0.9} {
				va, err := ea.Estimate(tau)
				if err != nil {
					t.Fatalf("%s %s: %v", step, algo, err)
				}
				vb, err := eb.Estimate(tau)
				if err != nil {
					t.Fatalf("%s %s %s: %v", step, side.name, algo, err)
				}
				if math.Float64bits(va) != math.Float64bits(vb) {
					t.Fatalf("%s %s %s tau=%v: %v vs %v", step, side.name, algo, tau, va, vb)
				}
			}
		}
		for qi, q := range queries {
			sb, err := side.rc.SearchSimilar(q, 0.7)
			if err != nil {
				t.Fatalf("%s %s: %v", step, side.name, err)
			}
			if sa := shrd.SearchSimilar(q, 0.7); !slices.Equal(sa, sb) {
				t.Fatalf("%s %s: search %d: %v vs %v", step, side.name, qi, sa, sb)
			}
		}
	}
}

// remoteShardCopies returns the coordinator's per-shard index copies; a
// full fetch replaces a copy, a delta or not-modified answer keeps it.
func remoteShardCopies(rem *RemoteCollection) []*lsh.Index {
	out := make([]*lsh.Index, len(rem.remote.copies))
	for s := range rem.remote.copies {
		rem.remote.copies[s].mu.Lock()
		out[s] = rem.remote.copies[s].idx
		rem.remote.copies[s].mu.Unlock()
	}
	return out
}

func TestConnectValidation(t *testing.T) {
	addrs := startShardServers(t, 2, Options{K: 6, Tables: 3, Seed: 5})
	if _, err := Connect(nil, Options{}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("no addresses: %v", err)
	}
	if _, err := Connect(addrs, Options{Dir: t.TempDir()}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("Dir accepted: %v", err)
	}
	if _, err := Connect(addrs, Options{Shards: 3}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("shard-count mismatch accepted: %v", err)
	}
	// Assertions against the servers' identity.
	if _, err := Connect(addrs, Options{K: 9}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("wrong K accepted: %v", err)
	}
	if _, err := Connect(addrs, Options{Seed: 11}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("wrong Seed accepted: %v", err)
	}
	if _, err := Connect(addrs, Options{Measure: JaccardSimilarity}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("wrong Measure accepted: %v", err)
	}
	// Zero fields adopt the served identity.
	rem, err := Connect(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	if rem.K() != 6 || rem.Tables() != 3 || rem.Shards() != 2 {
		t.Fatalf("adopted K=%d Tables=%d Shards=%d", rem.K(), rem.Tables(), rem.Shards())
	}
	// Servers disagreeing among themselves are rejected, naming the shard.
	other := startShardServers(t, 1, Options{K: 6, Tables: 3, Seed: 99})
	if _, err := Connect([]string{addrs[0], other[0]}, Options{}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("mixed identities accepted: %v", err)
	}
}

// misbehavingShard proxies requests to a real shard server frame by frame,
// sabotaging every snapshot fetch per mode — so degradation is observed
// through the public Connect/estimate path, not by poking internals. Mode
// "alter-delta" relays everything but changes one vector in the first
// delta answer, re-framed with a valid checksum, so only the coordinator's
// post-apply check can notice.
func misbehavingShard(t *testing.T, backendAddr, mode string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var altered atomic.Bool
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				backend, err := net.Dial("tcp", backendAddr)
				if err != nil {
					return
				}
				defer backend.Close()
				for {
					typ, payload, err := shardrpc.ReadFrame(conn)
					if err != nil {
						return
					}
					if mode == "alter-delta" || typ != shardrpc.TSnapshot && typ != shardrpc.TDelta { // handshake, ingest: relay faithfully
						if err := shardrpc.WriteFrame(backend, typ, payload); err != nil {
							return
						}
						rtyp, resp, err := shardrpc.ReadFrame(backend)
						if err != nil {
							return
						}
						if mode == "alter-delta" && rtyp == shardrpc.TDeltaOK && altered.CompareAndSwap(false, true) {
							// The payload ends with the last vector's last
							// weight: make it dominate that vector.
							binary.LittleEndian.PutUint32(resp[len(resp)-4:], math.Float32bits(1e4))
						}
						if err := shardrpc.WriteFrame(conn, rtyp, resp); err != nil {
							return
						}
						continue
					}
					switch mode {
					case "mute": // swallow the request; let the client time out
						continue
					case "corrupt": // answer with a CRC-flipped frame
						if err := shardrpc.WriteFrame(backend, typ, payload); err != nil {
							return
						}
						rtyp, resp, err := shardrpc.ReadFrame(backend)
						if err != nil {
							return
						}
						frame := shardrpc.AppendFrame(nil, rtyp, resp)
						frame[len(frame)-2] ^= 0x40
						conn.Write(frame)
						return
					case "short": // half a frame, then hang up
						frame := shardrpc.AppendFrame(nil, typ, payload)
						conn.Write(frame[:len(frame)/2])
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// One misbehaving shard fails the whole read with the right typed error —
// bounded by the call timeout, never a hang, never a partial estimate over
// the healthy shards.
func TestRemoteDegradation(t *testing.T) {
	opt := Options{K: 6, Tables: 2, Seed: 5}
	backends := startShardServers(t, 2, opt)
	cases := []struct {
		mode string
		want error
	}{
		{"mute", ErrShardUnavailable},
		{"corrupt", ErrShardProtocol},
		{"short", ErrShardUnavailable},
	}
	for _, tc := range cases {
		t.Run(tc.mode, func(t *testing.T) {
			bad := misbehavingShard(t, backends[1], tc.mode)
			rem, err := Connect([]string{backends[0], bad}, opt, fastRemote()...)
			if err != nil {
				t.Fatal(err)
			}
			defer rem.Close()
			if _, err := rem.InsertBatch(fixtureVectors(t, 16)); err != nil {
				t.Fatal(err) // ingest itself relays fine in every mode
			}
			start := time.Now()
			v, err := rem.EstimateJoinSize(0.8)
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("degraded estimate took %v", elapsed)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want %v", err, tc.want)
			}
			if v != 0 {
				t.Fatalf("partial estimate %v served alongside the error", v)
			}
			if _, err := rem.N(); !errors.Is(err, tc.want) {
				t.Fatalf("N error = %v, want %v", err, tc.want)
			}
		})
	}
}

// A delta that the coordinator's copy cannot reproduce — here one vector
// altered in flight, behind a valid frame checksum — fails the read with
// ErrShardProtocol and leaves no copy of that shard behind; the next read
// refetches the full snapshot and answers like the in-process collection.
func TestRemoteDeltaMismatch(t *testing.T) {
	opt := Options{K: 6, Tables: 2, Seed: 5}
	backends := startShardServers(t, 2, opt)
	bad := misbehavingShard(t, backends[1], "alter-delta")
	rem, err := Connect([]string{backends[0], bad}, opt, fastRemote()...)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	vecs := fixtureVectors(t, 200)
	sopt := opt
	sopt.Shards = 2
	shrd, err := NewSharded(vecs[:160], sopt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rem.InsertBatch(vecs[:160]); err != nil {
		t.Fatal(err)
	}
	if _, err := rem.N(); err != nil { // full snapshots
		t.Fatal(err)
	}
	shrd.InsertBatch(vecs[160:])
	if _, err := rem.InsertBatch(vecs[160:]); err != nil {
		t.Fatal(err)
	}
	est, err := rem.Estimator(AlgoLSHSS, WithEstimatorSeed(3))
	if !errors.Is(err, ErrShardProtocol) {
		t.Fatalf("altered delta: error = %v, want ErrShardProtocol", err)
	}
	if est != nil {
		t.Fatal("an estimator was built over the altered delta")
	}
	if copies := remoteShardCopies(rem); copies[1] != nil {
		t.Fatal("the altered delta left a shard copy behind")
	}
	ea, err := shrd.Estimator(AlgoLSHSS, WithEstimatorSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	eb, err := rem.Estimator(AlgoLSHSS, WithEstimatorSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	va, err := ea.Estimate(0.6)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := eb.Estimate(0.6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(va) != math.Float64bits(vb) {
		t.Fatalf("after refetch: %v vs in-process %v", vb, va)
	}
}

// A shard server restarted at the same address with different vectors —
// brought to the very version and vector count the coordinator holds — is
// a different history: its new epoch forces a full fetch, so the existing
// coordinator's next reads reflect the new vectors, not its stale copy.
func TestRemoteShardRestart(t *testing.T) {
	opt := Options{K: 6, Tables: 2, Seed: 5}
	vecs := fixtureVectors(t, 240)
	oldVecs, newVecs := vecs[:120], vecs[120:]
	serve := func(addr string, load []Vector) (string, func()) {
		srv, err := NewShardServer(opt)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		srv.InsertBatch(load)
		srv.N() // publishes: version 2, n = len(load)
		errc := make(chan error, 1)
		go func() { errc <- srv.Serve(ln) }()
		return ln.Addr().String(), func() {
			if err := srv.Close(); err != nil {
				t.Error(err)
			}
			if err := <-errc; err != nil {
				t.Error(err)
			}
		}
	}
	addr, stop := serve("127.0.0.1:0", oldVecs)
	rem, err := Connect([]string{addr}, opt)
	if err != nil {
		stop()
		t.Fatal(err)
	}
	defer rem.Close()
	vers, err := rem.ShardVersions()
	if err != nil {
		stop()
		t.Fatal(err)
	}
	// An exact join before the restart: a joiner cached on the version
	// vector alone would be served again after it.
	oldExact, err := rem.ExactJoinSize(0.8)
	if err != nil {
		stop()
		t.Fatal(err)
	}
	stop()
	_, stop = serve(addr, newVecs)
	defer stop()

	want, err := New(newVecs, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rem.ShardVersions()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, vers) {
		t.Fatalf("restarted server is at versions %v, the coordinator held %v", got, vers)
	}
	if n, err := rem.N(); err != nil || n != len(newVecs) {
		t.Fatalf("N = %d, %v", n, err)
	}
	v, err := rem.Vector(0)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != newVecs[0].String() {
		t.Fatal("Vector(0) is still the pre-restart vector")
	}
	ea, err := want.Estimator(AlgoLSHSS, WithEstimatorSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	eb, err := rem.Estimator(AlgoLSHSS, WithEstimatorSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	va, err := ea.Estimate(0.5)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := eb.Estimate(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(va) != math.Float64bits(vb) {
		t.Fatalf("estimate after restart %v, in-process over the new vectors %v", vb, va)
	}
	wantExact, err := want.ExactJoinSize(0.8)
	if err != nil {
		t.Fatal(err)
	}
	if wantExact == oldExact {
		t.Fatalf("fixture cannot tell the corpora apart: both exact joins are %d", oldExact)
	}
	if gotExact, err := rem.ExactJoinSize(0.8); err != nil || gotExact != wantExact {
		t.Fatalf("exact join after restart %d (%v), in-process over the new vectors %d", gotExact, err, wantExact)
	}
	for _, q := range newVecs[:5] {
		sb, err := rem.SearchSimilar(q, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		if sa := want.SearchSimilar(q, 0.7); !slices.Equal(sa, sb) {
			t.Fatalf("search after restart %v, in-process over the new vectors %v", sb, sa)
		}
	}
}

// Reads racing inserts on one coordinator: each shard copy advances under
// its own lock while estimators keep reading the snapshots they captured,
// and afterwards the copies equal what a fresh coordinator fetches in full.
func TestRemoteConcurrentReadsAndInserts(t *testing.T) {
	opt := Options{K: 6, Tables: 2, Seed: 5}
	addrs := startShardServers(t, 2, opt)
	rem, err := Connect(addrs, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	vecs := fixtureVectors(t, 360)
	if _, err := rem.InsertBatch(vecs[:200]); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 2; w++ {
		wg.Add(2)
		go func(part []Vector) {
			defer wg.Done()
			for _, v := range part {
				if _, err := rem.Insert(v); err != nil {
					errs <- err
					return
				}
			}
		}(vecs[200+80*w : 280+80*w])
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				est, err := rem.Estimator(AlgoLSHSS, WithEstimatorSeed(seed))
				if err == nil {
					_, err = est.Estimate(0.7)
				}
				if err == nil {
					_, err = rem.SearchSimilar(vecs[i], 0.7)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	fresh, err := Connect(addrs, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	var got [2]float64
	for i, rc := range []*RemoteCollection{rem, fresh} {
		if n, err := rc.N(); err != nil || n != len(vecs) {
			t.Fatalf("N = %d, %v; want %d", n, err, len(vecs))
		}
		est, err := rc.Estimator(AlgoLSHSS, WithEstimatorSeed(9))
		if err != nil {
			t.Fatal(err)
		}
		if got[i], err = est.Estimate(0.6); err != nil {
			t.Fatal(err)
		}
	}
	if math.Float64bits(got[0]) != math.Float64bits(got[1]) {
		t.Fatalf("after concurrent reads and inserts: %v, fresh coordinator %v", got[0], got[1])
	}
}

// Every front end validates τ on its exact count and pair enumeration the
// way the estimators do — out-of-range and NaN thresholds are errors, not
// a count of 0 or C(n, 2) — and in-range thresholds agree across them.
func TestExactJoinRejectsBadTau(t *testing.T) {
	for _, measure := range []Measure{JaccardSimilarity, CosineSimilarity} {
		t.Run(fmt.Sprintf("measure=%d", measure), func(t *testing.T) {
			vecs := fixtureVectors(t, 80)
			opt := Options{K: 6, Tables: 2, Seed: 5, Measure: measure}
			col, err := New(vecs, opt)
			if err != nil {
				t.Fatal(err)
			}
			sopt := opt
			sopt.Shards = 2
			shrd, err := NewSharded(vecs, sopt)
			if err != nil {
				t.Fatal(err)
			}
			rem, err := Connect(startShardServers(t, 2, opt), opt)
			if err != nil {
				t.Fatal(err)
			}
			defer rem.Close()
			if _, err := rem.InsertBatch(vecs); err != nil {
				t.Fatal(err)
			}
			counts := map[string]func(float64) (int64, error){
				"Collection":        col.ExactJoinSize,
				"ShardedCollection": shrd.ExactJoinSize,
				"RemoteCollection":  rem.ExactJoinSize,
			}
			pairs := map[string]func(float64) ([]JoinPair, error){
				"Collection":        col.JoinPairs,
				"ShardedCollection": shrd.JoinPairs,
			}
			for _, tau := range []float64{0, -0.1, 1.5, math.NaN()} {
				for name, count := range counts {
					if n, err := count(tau); err == nil {
						t.Errorf("%s.ExactJoinSize(%v) = %d, want an error", name, tau, n)
					}
				}
				for name, join := range pairs {
					if ps, err := join(tau); err == nil {
						t.Errorf("%s.JoinPairs(%v) = %d pairs, want an error", name, tau, len(ps))
					}
				}
			}
			want, err := col.ExactJoinSize(0.3)
			if err != nil {
				t.Fatal(err)
			}
			for name, count := range counts {
				if n, err := count(0.3); err != nil || n != want {
					t.Errorf("%s.ExactJoinSize(0.3) = %d, %v, want %d", name, n, err, want)
				}
			}
			for name, join := range pairs {
				if ps, err := join(0.3); err != nil || int64(len(ps)) != want {
					t.Errorf("%s.JoinPairs(0.3) = %d pairs, %v, want %d", name, len(ps), err, want)
				}
			}
		})
	}
}

// A durable shard server persists network ingest across restarts: close,
// reopen on the same directory, and the coordinator sees the same corpus.
func TestShardServerDurable(t *testing.T) {
	dir := t.TempDir()
	opt := Options{K: 6, Tables: 2, Seed: 5, Dir: dir}
	vecs := fixtureVectors(t, 64)

	run := func(load bool) int {
		srv, err := NewShardServer(opt)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() { errc <- srv.Serve(ln) }()
		rem, err := Connect([]string{ln.Addr().String()}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if load {
			if _, err := rem.InsertBatch(vecs); err != nil {
				t.Fatal(err)
			}
		}
		n, err := rem.N()
		if err != nil {
			t.Fatal(err)
		}
		rem.Close()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := run(true); n != len(vecs) {
		t.Fatalf("first run N = %d, want %d", n, len(vecs))
	}
	if n := run(false); n != len(vecs) {
		t.Fatalf("recovered N = %d, want %d", n, len(vecs))
	}
}

func TestNewShardServerValidation(t *testing.T) {
	if _, err := NewShardServer(Options{Shards: 2}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("Shards=2 accepted: %v", err)
	}
	// Reopening asserts against the stored identity.
	dir := t.TempDir()
	srv, err := NewShardServer(Options{K: 6, Seed: 5, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewShardServer(Options{K: 9, Dir: dir}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("conflicting K accepted on reopen: %v", err)
	}
}
