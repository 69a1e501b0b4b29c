package shardrpc

import (
	"errors"
	"net"
	"testing"
	"time"

	"lshjoin/internal/lsh"
	"lshjoin/internal/lsh/persist"
	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

// testVectors builds a deterministic corpus with some duplicate-support
// structure so buckets are non-trivial.
func testVectors(n int) []vecmath.Vector {
	rng := xrand.New(99)
	vs := make([]vecmath.Vector, 0, n)
	for i := 0; i < n; i++ {
		dims := make([]uint32, 0, 6)
		base := uint32(rng.Intn(40))
		for d := 0; d < 6; d++ {
			dims = append(dims, base+uint32(rng.Intn(25)))
		}
		vs = append(vs, vecmath.FromDims(dims))
	}
	return vs
}

// startServer runs a real shard server on loopback and returns its address
// and a stop function.
func startServer(t *testing.T, opt ServerOptions) (*Server, string) {
	t.Helper()
	family := lsh.NewSimHash(7)
	g, err := lsh.NewShardGroup(nil, family, 6, 3, 1)
	if err != nil {
		t.Fatalf("NewShardGroup: %v", err)
	}
	srv := NewServer(g.Shard(0), opt)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func testClientOptions() ClientOptions {
	return ClientOptions{
		DialTimeout: 2 * time.Second,
		CallTimeout: 2 * time.Second,
		Retries:     1,
		Backoff:     10 * time.Millisecond,
	}
}

func TestClientServerRoundTrip(t *testing.T) {
	srv, addr := startServer(t, ServerOptions{})
	c, err := Dial(addr, testClientOptions())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	h := c.Hello()
	if h.Family.Name != "simhash" || h.Family.Seed != 7 || h.K != 6 || h.Ell != 3 {
		t.Fatalf("handshake identity = %+v", h)
	}
	if h.Version != 1 || h.N != 0 {
		t.Fatalf("fresh server reports version %d, n %d", h.Version, h.N)
	}

	vs := testVectors(120)
	first, count, err := c.Ingest(vs[:80])
	if err != nil || first != 0 || count != 80 {
		t.Fatalf("Ingest = (%d, %d, %v)", first, count, err)
	}
	first, count, err = c.Ingest(vs[80:])
	if err != nil || first != 80 || count != 40 {
		t.Fatalf("second Ingest = (%d, %d, %v)", first, count, err)
	}

	ver, err := c.Publish()
	if err != nil || ver != 2 {
		t.Fatalf("Publish = (%d, %v)", ver, err)
	}

	sum, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	want := srv.Index().Current().Summary()
	if sum.Version != want.Version || sum.N != want.N || len(sum.TableNH) != len(want.TableNH) {
		t.Fatalf("Stats = %+v, want %+v", sum, want)
	}
	for i := range sum.TableNH {
		if sum.TableNH[i] != want.TableNH[i] {
			t.Fatalf("Stats N_H[%d] = %d, want %d", i, sum.TableNH[i], want.TableNH[i])
		}
	}

	version, blob, notMod, err := c.Snapshot(0)
	if err != nil || notMod {
		t.Fatalf("Snapshot = (%d, notMod=%v, %v)", version, notMod, err)
	}
	idx2, err := persist.DecodeSnapshot(blob)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	snap, local := srv.Index().Current(), idx2.Current()
	if local.Version() != snap.Version() || local.N() != snap.N() {
		t.Fatalf("fetched snapshot at (v%d, n%d), server at (v%d, n%d)",
			local.Version(), local.N(), snap.Version(), snap.N())
	}

	// The fetched snapshot must be sampling-equivalent: the server-side
	// sample batch and a local draw from the reconstructed table with the
	// same seed must agree pair for pair.
	sver, pairs, err := c.SampleBatch(1, 50, 1234)
	if err != nil || sver != version {
		t.Fatalf("SampleBatch = (v%d, %v), want v%d", sver, err, version)
	}
	rng := xrand.New(1234)
	tab := local.Table(1)
	for d, pr := range pairs {
		i, j, ok := tab.SamplePair(rng)
		if !ok || int32(i) != pr[0] || int32(j) != pr[1] {
			t.Fatalf("draw %d: local (%d, %d, %v) vs remote (%d, %d)", d, i, j, ok, pr[0], pr[1])
		}
	}
	if len(pairs) != 50 {
		t.Fatalf("got %d pairs, want 50", len(pairs))
	}

	// Not-modified fast path.
	version2, blob, notMod, err := c.Snapshot(version)
	if err != nil || !notMod || blob != nil || version2 != version {
		t.Fatalf("Snapshot(have) = (%d, %d bytes, notMod=%v, %v)", version2, len(blob), notMod, err)
	}
}

// Delta answers each caller state with the cheapest shape the server can
// vouch for: a full snapshot under its epoch for a caller holding nothing
// or another epoch's state, not-modified for the current state, and the
// appended vectors with the resulting n and N_H for an older state of the
// same epoch — which, applied and published at the server's version,
// reproduces the server's snapshot.
func TestClientDelta(t *testing.T) {
	srv, addr := startServer(t, ServerOptions{})
	c, err := Dial(addr, testClientOptions())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	vs := testVectors(90)
	if _, _, err := c.Ingest(vs[:50]); err != nil {
		t.Fatal(err)
	}
	f, err := c.Delta(0, 0, 0)
	if err != nil || f.Kind != FetchFull || f.Epoch == 0 || f.Version != 2 {
		t.Fatalf("first Delta = %+v, %v", f, err)
	}
	epoch := f.Epoch
	idx, err := persist.DecodeSnapshot(f.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if f, err = c.Delta(epoch, 2, 50); err != nil || f.Kind != FetchNotModified || f.Version != 2 {
		t.Fatalf("unchanged Delta = %+v, %v", f, err)
	}
	// Two publishes between fetches: the delta jumps both.
	if _, _, err := c.Ingest(vs[50:70]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Publish(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Ingest(vs[70:]); err != nil {
		t.Fatal(err)
	}
	if f, err = c.Delta(epoch, 2, 50); err != nil || f.Kind != FetchDelta || f.Version != 4 || len(f.Delta.Vectors) != 40 {
		t.Fatalf("grown Delta = kind %d v%d %d vectors, %v", f.Kind, f.Version, len(f.Delta.Vectors), err)
	}
	idx.InsertBatch(f.Delta.Vectors)
	local, err := idx.PublishAt(f.Version)
	if err != nil {
		t.Fatal(err)
	}
	want := srv.Index().Current().Summary()
	if got := local.Summary(); got.Version != want.Version || got.N != want.N || f.Delta.N != want.N {
		t.Fatalf("applied delta to %+v (response n %d), server at %+v", got, f.Delta.N, want)
	}
	for tb, nh := range want.TableNH {
		if local.Table(tb).NH() != nh || f.Delta.TableNH[tb] != nh {
			t.Fatalf("table %d: applied N_H %d, response %d, server %d", tb, local.Table(tb).NH(), f.Delta.TableNH[tb], nh)
		}
	}
	// States the server cannot vouch for get a full snapshot.
	for _, st := range []struct {
		epoch, ver uint64
		n          int
	}{{epoch + 1, 2, 50}, {epoch, 4, 50}, {epoch, 2, 90}, {epoch, 5, 95}} {
		if f, err = c.Delta(st.epoch, st.ver, st.n); err != nil || f.Kind != FetchFull || f.Epoch != epoch || f.Version != 4 {
			t.Fatalf("Delta%+v = kind %d epoch %d v%d, %v", st, f.Kind, f.Epoch, f.Version, err)
		}
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	_, addr := startServer(t, ServerOptions{})
	c, err := Dial(addr, testClientOptions())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	if _, _, err := c.Ingest(testVectors(2)); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	_, _, err = c.SampleBatch(9, 5, 1) // only 3 tables exist
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeBadRequest {
		t.Fatalf("out-of-range table error = %v, want ServerError/CodeBadRequest", err)
	}
	// The connection survives a request-level rejection.
	if _, err := c.Stats(); err != nil {
		t.Fatalf("Stats after rejection: %v", err)
	}
}

func TestServerPublishEvery(t *testing.T) {
	srv, addr := startServer(t, ServerOptions{PublishEvery: 10})
	c, err := Dial(addr, testClientOptions())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	vs := testVectors(25)
	if _, _, err := c.Ingest(vs[:9]); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if v := srv.Index().Current().Version(); v != 1 {
		t.Fatalf("published at %d before policy size", v)
	}
	if _, _, err := c.Ingest(vs[9:]); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if v := srv.Index().Current().Version(); v != 2 {
		t.Fatalf("version %d after crossing policy size, want 2", v)
	}
}

// fakeServer accepts connections, answers the handshake like a real shard,
// then hands the connection to behave.
func fakeServer(t *testing.T, behave func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				typ, _, err := ReadFrame(conn)
				if err != nil || typ != THello {
					return
				}
				h := Hello{Family: lsh.FamilySpec{Name: "simhash", Seed: 7, Bits: 1}, K: 6, Ell: 3, Version: 1}
				if err := WriteFrame(conn, THelloOK, encodeHelloResp(h)); err != nil {
					return
				}
				behave(conn)
			}(conn)
		}
	}()
	return ln.Addr().String()
}

func TestClientTimeoutIsUnavailable(t *testing.T) {
	// A server that accepts and handshakes but never answers requests must
	// surface ErrUnavailable within the call timeout budget — no hang.
	addr := fakeServer(t, func(conn net.Conn) {
		buf := make([]byte, 4096)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	})
	opt := ClientOptions{CallTimeout: 150 * time.Millisecond, Retries: 1, Backoff: 5 * time.Millisecond}
	c, err := Dial(addr, opt)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Stats()
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Stats on mute server = %v, want ErrUnavailable", err)
	}
	// 2 attempts × 150ms timeout + backoff + reconnects; anything under a
	// couple of seconds proves the deadline actually bounds the call.
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("unavailability took %v to surface", d)
	}
}

func TestClientCorruptFrameIsProtocolError(t *testing.T) {
	// A server that answers with a corrupted frame (bad checksum) must
	// surface ErrProtocol, not hang and not retry forever.
	addr := fakeServer(t, func(conn net.Conn) {
		if _, _, err := ReadFrame(conn); err != nil {
			return
		}
		frame := AppendFrame(nil, TStatsOK, []byte("junk payload"))
		frame[len(frame)-1] ^= 0xFF // break the CRC
		conn.Write(frame)
	})
	c, err := Dial(addr, testClientOptions())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Stats(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("Stats on corrupt frame = %v, want ErrProtocol", err)
	}
}

func TestClientShortFrameIsUnavailable(t *testing.T) {
	// A server that writes half a frame and slams the connection looks like
	// a transport failure: retried, then ErrUnavailable.
	addr := fakeServer(t, func(conn net.Conn) {
		if _, _, err := ReadFrame(conn); err != nil {
			return
		}
		full := AppendFrame(nil, TStatsOK, encodeStatsResp(1, lsh.SnapshotSummary{N: 0, TableNH: []int64{0, 0, 0}}))
		conn.Write(full[:len(full)/2])
	})
	c, err := Dial(addr, ClientOptions{CallTimeout: time.Second, Retries: 1, Backoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Stats(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Stats on short frame = %v, want ErrUnavailable", err)
	}
}

func TestClientWrongResponseTypeIsProtocolError(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		if _, _, err := ReadFrame(conn); err != nil {
			return
		}
		WriteFrame(conn, TSampleOK, encodeSampleResp(1, nil))
	})
	c, err := Dial(addr, testClientOptions())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Stats(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("mispaired response = %v, want ErrProtocol", err)
	}
}

func TestClientReconnectsAfterServerDrop(t *testing.T) {
	// The server reaps idle connections; an idempotent call on a reaped
	// connection must transparently reconnect and succeed.
	_, addr := startServer(t, ServerOptions{IdleTimeout: 30 * time.Millisecond})
	c, err := Dial(addr, testClientOptions())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Stats(); err != nil {
		t.Fatalf("Stats: %v", err)
	}
	time.Sleep(120 * time.Millisecond) // let the server drop the connection
	if _, err := c.Stats(); err != nil {
		t.Fatalf("Stats after idle drop: %v", err)
	}
}

func TestIngestNotReplayedAfterPartialFailure(t *testing.T) {
	// A connection that dies mid-exchange on a non-idempotent Ingest must
	// surface ErrUnavailable without a second application.
	calls := make(chan struct{}, 16)
	addr := fakeServer(t, func(conn net.Conn) {
		for {
			typ, _, err := ReadFrame(conn)
			if err != nil {
				return
			}
			if typ == TIngest {
				calls <- struct{}{}
				return // close without answering
			}
		}
	})
	c, err := Dial(addr, ClientOptions{CallTimeout: time.Second, Retries: 3, Backoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, _, err := c.Ingest(testVectors(3)); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Ingest on dropped conn = %v, want ErrUnavailable", err)
	}
	if got := len(calls); got != 1 {
		t.Fatalf("ingest hit the server %d times, want exactly 1 (no replay)", got)
	}
}
