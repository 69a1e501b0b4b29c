package shardrpc

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"lshjoin/internal/lsh"
	"lshjoin/internal/lsh/persist"
	"lshjoin/internal/vecmath"
)

// ClientOptions tunes one shard connection.
type ClientOptions struct {
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// CallTimeout bounds one request/response exchange, write and read
	// included (default 10s). A shard that does not answer within it is
	// treated as unavailable — calls never hang.
	CallTimeout time.Duration
	// Retries is how many times a transiently failed call is re-attempted
	// beyond the first try (default 2). Only idempotent requests — and
	// non-idempotent ones whose bytes never reached the wire — are retried;
	// an Ingest that may have been applied is never replayed.
	Retries int
	// Backoff is the delay before the first retry, doubling per attempt
	// (default 50ms). Deterministic: no jitter, so tests are exact.
	Backoff time.Duration
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 10 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Backoff <= 0 {
		o.Backoff = 50 * time.Millisecond
	}
	return o
}

// WithNoRetries disables transient retries (Retries would default to 2).
func (o ClientOptions) WithNoRetries() ClientOptions {
	o.Retries = -1
	return o
}

// Client is one connection to one shard server, reconnecting on demand
// after transient failures. Calls are serialized per client (the protocol
// is one-request-one-response per connection); a coordinator that wants
// parallel fan-out uses one Client per shard. Every returned error is
// typed: ErrUnavailable for transport failures and timeouts (after
// retries), ErrProtocol for malformed or mismatched responses, *ServerError
// for explicit server rejections.
type Client struct {
	addr string
	opt  ClientOptions

	mu     sync.Mutex
	conn   net.Conn
	br     *bufio.Reader
	hello  Hello
	pinned bool
}

// Dial connects to a shard server and performs the handshake, returning its
// identity alongside the client. The identity is pinned: if a reconnect
// after a transient failure reaches a server with a different hashing
// identity (family, k, ℓ), the call fails with ErrProtocol rather than
// silently mixing incompatible shards.
func Dial(addr string, opt ClientOptions) (*Client, error) {
	c := &Client{addr: addr, opt: opt.withDefaults()}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.connectLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// Addr returns the dialed address.
func (c *Client) Addr() string { return c.addr }

// Hello returns the server identity captured at the last successful
// handshake.
func (c *Client) Hello() Hello {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hello
}

// Close closes the connection. The client must not be used afterwards.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn, c.br = nil, nil
	return err
}

func (c *Client) unavailable(err error) error {
	return fmt.Errorf("shardrpc: %s: %v: %w", c.addr, err, ErrUnavailable)
}

func (c *Client) dropLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.br = nil, nil
	}
}

// connectLocked dials and handshakes. Callers hold c.mu.
func (c *Client) connectLocked() error {
	conn, err := net.DialTimeout("tcp", c.addr, c.opt.DialTimeout)
	if err != nil {
		return c.unavailable(err)
	}
	conn.SetDeadline(time.Now().Add(c.opt.CallTimeout))
	br := bufio.NewReader(conn)
	if err := WriteFrame(conn, THello, encodeHelloReq()); err != nil {
		conn.Close()
		return c.unavailable(err)
	}
	rtyp, payload, err := ReadFrame(br)
	if err != nil {
		conn.Close()
		if errors.Is(err, ErrProtocol) {
			return err
		}
		return c.unavailable(err)
	}
	switch rtyp {
	case THelloOK:
	case TErr:
		conn.Close()
		return decodeErrResp(payload)
	default:
		conn.Close()
		return pErr("shardrpc: handshake answered with type %d", rtyp)
	}
	h, err := decodeHelloResp(payload)
	if err != nil {
		conn.Close()
		return err
	}
	if c.pinned && (h.Family != c.hello.Family || h.K != c.hello.K || h.Ell != c.hello.Ell) {
		conn.Close()
		return pErr("shardrpc: %s changed hashing identity across reconnect", c.addr)
	}
	conn.SetDeadline(time.Time{})
	c.conn, c.br = conn, br
	c.hello, c.pinned = h, true
	return nil
}

// call performs one request/response exchange, reconnecting and retrying
// transient failures per the client options. want lists the acceptable
// response types; TErr is always decoded into a *ServerError.
func (c *Client) call(typ uint32, payload []byte, idempotent bool, want ...uint32) (uint32, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt <= c.opt.Retries; attempt++ {
		if attempt > 0 {
			time.Sleep(c.opt.Backoff << (attempt - 1))
		}
		if c.conn == nil {
			if err := c.connectLocked(); err != nil {
				lastErr = err
				if errors.Is(err, ErrUnavailable) {
					continue // nothing reached the wire; always retryable
				}
				return 0, nil, err // protocol violation or server rejection
			}
		}
		c.conn.SetDeadline(time.Now().Add(c.opt.CallTimeout))
		if err := WriteFrame(c.conn, typ, payload); err != nil {
			c.dropLocked()
			lastErr = c.unavailable(err)
			if !idempotent {
				break // bytes may have reached the server; do not replay
			}
			continue
		}
		rtyp, resp, err := ReadFrame(c.br)
		if err != nil {
			c.dropLocked()
			if errors.Is(err, ErrProtocol) {
				return 0, nil, err
			}
			lastErr = c.unavailable(err)
			if !idempotent {
				break
			}
			continue
		}
		c.conn.SetDeadline(time.Time{})
		if rtyp == TErr {
			return 0, nil, decodeErrResp(resp)
		}
		for _, w := range want {
			if rtyp == w {
				return rtyp, resp, nil
			}
		}
		c.dropLocked() // request/response pairing is broken on this stream
		return 0, nil, pErr("shardrpc: response type %d to request type %d", rtyp, typ)
	}
	return 0, nil, lastErr
}

// Ingest streams a vector batch to the shard, returning the first assigned
// local id and the count. Ingest is not idempotent: a transient failure
// after the request hit the wire surfaces as ErrUnavailable without a
// replay (the batch may or may not have been applied; the caller decides).
func (c *Client) Ingest(vs []vecmath.Vector) (first, count int, err error) {
	if len(vs) == 0 {
		return 0, 0, fmt.Errorf("shardrpc: empty ingest batch")
	}
	_, resp, err := c.call(TIngest, persist.EncodeVectors(vs), false, TIngestOK)
	if err != nil {
		return 0, 0, err
	}
	return decodeIngestResp(resp)
}

// Publish asks the shard to publish pending ingest and returns the
// resulting version. Idempotent.
func (c *Client) Publish() (uint64, error) {
	_, resp, err := c.call(TPublish, nil, true, TPublishOK)
	if err != nil {
		return 0, err
	}
	return decodeVersion(resp)
}

// Snapshot fetches the shard's current snapshot (publishing pending ingest
// first). With have set to a version the caller already holds, an unchanged
// shard answers with notModified=true and ships no blob. The blob is the
// persist checkpoint encoding; decode with persist.DecodeSnapshot.
func (c *Client) Snapshot(have uint64) (version uint64, blob []byte, notModified bool, err error) {
	rtyp, resp, err := c.call(TSnapshot, encodeVersion(have), true, TSnapshotOK, TNotModified)
	if err != nil {
		return 0, nil, false, err
	}
	if rtyp == TNotModified {
		v, err := decodeVersion(resp)
		return v, nil, true, err
	}
	version, blob, err = decodeSnapshotResp(resp)
	return version, blob, false, err
}

// FetchKind tells which of its three answers a Delta call got.
type FetchKind uint8

const (
	// FetchNotModified: the caller's state is the shard's current state.
	FetchNotModified FetchKind = iota + 1
	// FetchDelta: Fetch.Delta holds the vectors appended since the caller's
	// vector count.
	FetchDelta
	// FetchFull: the server could not vouch for the caller's state (first
	// fetch, or a different epoch) and sent its whole snapshot in Blob.
	FetchFull
)

// Fetch is a Delta call's answer. Version is the shard's current version
// in every kind; Delta is set for FetchDelta, Epoch and Blob for FetchFull.
type Fetch struct {
	Kind    FetchKind
	Version uint64
	Delta   Delta
	Epoch   uint64 // the server epoch to present from now on
	Blob    []byte // persist checkpoint encoding; decode with persist.DecodeSnapshot
}

// Delta fetches the shard's state relative to what the caller holds: the
// server epoch it was fetched under (0 when it holds nothing), its version
// and its vector count. Within the server's epoch an unchanged shard
// answers not-modified and a grown one ships only the vectors appended
// since haveN; otherwise the server sends a full snapshot under its epoch.
// Publishes pending ingest first, like Snapshot. Idempotent.
func (c *Client) Delta(epoch, haveVersion uint64, haveN int) (Fetch, error) {
	rtyp, resp, err := c.call(TDelta, encodeDeltaReq(epoch, haveVersion, haveN), true, TDeltaOK, TFullSnap, TNotModified)
	if err != nil {
		return Fetch{}, err
	}
	f := Fetch{}
	switch rtyp {
	case TNotModified:
		f.Kind = FetchNotModified
		f.Version, err = decodeVersion(resp)
	case TDeltaOK:
		f.Kind = FetchDelta
		f.Version, f.Delta, err = decodeDeltaResp(resp, c.Hello().Ell)
	default:
		f.Kind = FetchFull
		f.Epoch, f.Version, f.Blob, err = decodeFullSnapResp(resp)
	}
	return f, err
}

// Stats fetches the shard's cheap summary digest (version, n, per-table
// N_H) without shipping the snapshot.
func (c *Client) Stats() (lsh.SnapshotSummary, error) {
	_, resp, err := c.call(TStats, nil, true, TStatsOK)
	if err != nil {
		return lsh.SnapshotSummary{}, err
	}
	return decodeStatsResp(resp)
}

// SampleBatch draws count weighted bucket pairs from the shard's table on
// the server side, from the deterministic stream seeded by seed, returning
// the snapshot version sampled and the (i, j) local-id pairs. A client
// holding the same snapshot version draws the identical pairs locally from
// the same seed — the cross-check RemoteCollection.VerifyShardSampling
// performs.
func (c *Client) SampleBatch(table, count int, seed uint64) (uint64, [][2]int32, error) {
	if count < 0 {
		return 0, nil, fmt.Errorf("shardrpc: negative sample count")
	}
	_, resp, err := c.call(TSample, encodeSampleReq(table, count, seed), true, TSampleOK)
	if err != nil {
		return 0, nil, err
	}
	return decodeSampleResp(resp)
}
