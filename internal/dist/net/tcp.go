// Package net is the TCP implementation of dist.Transport: the wire
// that turns the in-process simulation into a real multi-process
// cluster (cmd/dsbp). Framing is a 4-byte big-endian length prefix per
// frame; the frame bytes themselves are the typed encodings produced
// by the dist collectives, so both transports ship identical payloads.
//
// Topology is a full mesh of one-directional connections: every rank
// listens on its own address and dials every peer, so the connection
// from rank f to rank t carries only f→t frames. Recv(from) reads the
// dedicated inbound connection for `from` directly — no demultiplexer,
// no reordering, and per-pair FIFO comes from TCP itself.
//
// Failure model: connection establishment retries with exponential
// backoff plus seeded jitter (peers boot in any order); established
// streams get per-operation send/recv deadlines, and any I/O error —
// timeout, reset, short frame — surfaces as a failed Send/Recv, which
// the collectives raise as a *dist.TransportError. There is no
// transparent reconnect mid-phase: the bulk-synchronous protocol has no
// way to resynchronise a half-lost sweep, so a broken wire fails the
// phase loudly instead of corrupting it silently.
package net

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	stdnet "net"
	"strconv"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/rng"
)

const (
	// magic identifies a DSBP cluster handshake, version-tagged so
	// incompatible builds refuse to pair instead of misreading frames.
	// v2 appended the trace-context frame to the handshake; v3 added
	// the supervisor generation for restart fencing.
	magic uint32 = 0xD5B7_0003
	// maxFrame bounds a frame declaration; anything larger is a
	// corrupted or hostile length prefix, not a real payload.
	maxFrame = 1 << 30
	// maxTraceCtx bounds the handshake's trace-context string.
	maxTraceCtx = 64
)

// Config describes one rank's endpoint of a TCP cluster.
type Config struct {
	Rank  int      // this rank's id in [0, len(Peers))
	Peers []string // Peers[r] is rank r's listen address (host:port)

	// Connection establishment. Zero values take the defaults.
	DialTimeout  time.Duration // per attempt (default 2s)
	DialAttempts int           // attempts per peer before giving up (default 60)
	BackoffBase  time.Duration // first retry backoff (default 25ms)
	BackoffMax   time.Duration // backoff ceiling (default 1s)
	AcceptWait   time.Duration // total wait for inbound handshakes (default 30s)

	// IOTimeout is the per-operation send/recv deadline once connected.
	// Zero takes the 30s default; negative disables deadlines.
	IOTimeout time.Duration

	// Seed drives the backoff jitter (deterministic per rank).
	Seed uint64

	// FailFirstDials injects that many synthetic dial failures per peer
	// before real dialing starts — the deterministic hook the backoff
	// tests use.
	FailFirstDials int

	// Listener, when non-nil, is used instead of listening on
	// Peers[Rank]. Tests use it to bind ephemeral ports before the peer
	// address list is assembled.
	Listener stdnet.Listener

	// Obs carries the process's telemetry handles. Dial registers the
	// endpoint's wire counters (tx bytes/frames, dial retries, deadline
	// hits) in the metrics registry under this rank's label; the
	// TrafficBytes/DialRetries accessors read the same counters.
	Obs obs.Obs

	// Trace is this rank's proposed trace id, carried in the handshake
	// so all ranks of one cluster can share a trace. The cluster agrees
	// on rank 0's proposal: after Dial, ClusterTraceID returns rank 0's
	// id (every rank receives rank 0's inbound handshake; rank 0 keeps
	// its own). Empty when tracing is disabled.
	Trace string

	// Generation is the supervisor restart epoch this endpoint belongs
	// to, carried in the handshake and used as a fence: an inbound
	// connection from a different generation is dropped and the accept
	// loop keeps waiting. That keeps a hung child of a previous
	// generation — killed by the supervisor but possibly with a dial
	// already in flight — from joining the fresh mesh and corrupting
	// the protocol. Plain runs leave it 0 everywhere.
	Generation int

	// Ctx, when non-nil, aborts connection establishment promptly on
	// cancellation: backoff sleeps return early and the accept loop is
	// unblocked by closing the listener, so a SIGTERM during cluster
	// boot never waits out the full retry schedule. It does not affect
	// an established transport — per-operation I/O deadlines own that
	// failure model, and the graceful checkpoint protocol needs in-
	// flight collectives to complete after cancellation.
	Ctx context.Context
}

func (cfg *Config) applyDefaults() {
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.DialAttempts == 0 {
		cfg.DialAttempts = 60
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = 25 * time.Millisecond
	}
	if cfg.BackoffMax == 0 {
		cfg.BackoffMax = time.Second
	}
	if cfg.AcceptWait == 0 {
		cfg.AcceptWait = 30 * time.Second
	}
	if cfg.IOTimeout == 0 {
		cfg.IOTimeout = 30 * time.Second
	}
}

// Transport is a connected TCP endpoint implementing dist.Transport.
// The wire accumulators are obs counters so the accessor methods and a
// live metrics registry (Config.Obs) are views over the same state.
type Transport struct {
	rank      int
	size      int
	ioTimeout time.Duration
	ln        stdnet.Listener
	out       []stdnet.Conn // out[r]: this rank → r (sends)
	in        []stdnet.Conn // in[r]: r → this rank (recvs)
	bytes     obs.Counter   // wire bytes sent (frames + length prefixes)
	frames    obs.Counter   // frames sent
	retries   obs.Counter   // failed dial attempts
	deadline  obs.Counter   // send/recv operations lost to an I/O deadline
	fenced    obs.Counter   // inbound connections dropped by the generation fence
	trace     string        // agreed cluster trace id (rank 0's proposal)
	closeOnce sync.Once
	closeErr  error
}

// ClusterTraceID returns the trace id the cluster agreed on during
// Dial: rank 0's proposal, "" when rank 0 ran without tracing.
func (t *Transport) ClusterTraceID() string { return t.trace }

// Dial establishes rank cfg.Rank's endpoint: it listens on its own
// address, dials every peer with retry/backoff, and waits for every
// peer's inbound connection. All ranks must call Dial within
// AcceptWait of each other (they boot concurrently).
func Dial(cfg Config) (*Transport, error) {
	cfg.applyDefaults()
	n := len(cfg.Peers)
	if n < 1 {
		return nil, errors.New("dist/net: empty peer list")
	}
	if cfg.Rank < 0 || cfg.Rank >= n {
		return nil, fmt.Errorf("dist/net: rank %d outside [0,%d)", cfg.Rank, n)
	}

	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = stdnet.Listen("tcp", cfg.Peers[cfg.Rank])
		if err != nil {
			return nil, fmt.Errorf("dist/net: rank %d listen %s: %w", cfg.Rank, cfg.Peers[cfg.Rank], err)
		}
	}
	if len(cfg.Trace) > maxTraceCtx {
		return nil, fmt.Errorf("dist/net: trace context %q exceeds %d bytes", cfg.Trace, maxTraceCtx)
	}
	ownTC, err := obs.ParseTraceContext(cfg.Trace)
	if err != nil {
		return nil, fmt.Errorf("dist/net: %w", err)
	}
	t := &Transport{
		rank:      cfg.Rank,
		size:      n,
		ioTimeout: cfg.IOTimeout,
		ln:        ln,
		out:       make([]stdnet.Conn, n),
		in:        make([]stdnet.Conn, n),
	}
	if cfg.Rank == 0 {
		// Rank 0's proposal is the cluster's trace id by definition;
		// every other rank adopts it from rank 0's inbound handshake.
		t.trace = ownTC.Trace
	}
	if reg := cfg.Obs.Metrics; reg != nil {
		rank := obs.L("rank", strconv.Itoa(cfg.Rank))
		reg.RegisterCounter("dist_net_tx_bytes_total",
			"TCP wire bytes sent (frames plus length prefixes)", &t.bytes, rank)
		reg.RegisterCounter("dist_net_tx_frames_total",
			"TCP frames sent", &t.frames, rank)
		reg.RegisterCounter("dist_net_dial_retries_total",
			"failed dial attempts during connection establishment", &t.retries, rank)
		reg.RegisterCounter("dist_net_deadline_hits_total",
			"send/recv operations that hit their I/O deadline", &t.deadline, rank)
		reg.RegisterCounter("dist_net_fenced_total",
			"inbound connections dropped by the restart-generation fence", &t.fenced, rank)
	}

	// A cancelled context closes the listener, which fails the accept
	// loop immediately instead of letting it wait out AcceptWait. The
	// watcher is released as soon as Dial returns.
	if cfg.Ctx != nil {
		watchDone := make(chan struct{})
		go func() {
			select {
			case <-cfg.Ctx.Done():
				ln.Close()
			case <-watchDone:
			}
		}()
		defer close(watchDone)
	}

	// Accept the n-1 inbound connections in the background while we
	// dial outbound, so no boot order deadlocks.
	acceptDone := make(chan error, 1)
	go func() { acceptDone <- t.acceptPeers(cfg) }()

	if err := t.dialPeers(cfg); err != nil {
		ln.Close() // unblock the accept loop before tearing down
		<-acceptDone
		t.Close()
		return nil, err
	}
	if err := <-acceptDone; err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

// acceptPeers collects one handshaked inbound connection per peer.
func (t *Transport) acceptPeers(cfg Config) error {
	deadline := time.Now().Add(cfg.AcceptWait)
	seen := 0
	for seen < t.size-1 {
		if d, ok := t.ln.(interface{ SetDeadline(time.Time) error }); ok {
			d.SetDeadline(deadline)
		}
		conn, err := t.ln.Accept()
		if err != nil {
			return fmt.Errorf("dist/net: rank %d accept (%d/%d peers connected): %w",
				t.rank, seen, t.size-1, err)
		}
		from, gen, trace, err := readHandshake(conn, t.size, deadline)
		if err != nil {
			conn.Close()
			return fmt.Errorf("dist/net: rank %d handshake: %w", t.rank, err)
		}
		if gen != cfg.Generation {
			// Restart fence: a straggler from another supervisor
			// generation is not a protocol error, just not one of ours.
			// Drop it and keep waiting for the real peer.
			conn.Close()
			t.fenced.Inc()
			continue
		}
		if from == t.rank || t.in[from] != nil {
			conn.Close()
			return fmt.Errorf("dist/net: rank %d got duplicate connection from rank %d", t.rank, from)
		}
		if from == 0 {
			// The cluster trace id is rank 0's proposal, delivered here.
			t.trace = trace
		}
		t.in[from] = conn
		seen++
	}
	return nil
}

// dialPeers connects to every peer with retry, exponential backoff and
// seeded jitter, then sends the identifying handshake.
func (t *Transport) dialPeers(cfg Config) error {
	jitter := rng.New(cfg.Seed ^ 0xD1A1<<16 ^ uint64(cfg.Rank))
	for peer := 0; peer < t.size; peer++ {
		if peer == t.rank {
			continue
		}
		var conn stdnet.Conn
		var lastErr error
		backoff := cfg.BackoffBase
		for attempt := 0; attempt < cfg.DialAttempts; attempt++ {
			if attempt > 0 {
				// Full backoff plus up to 50% jitter so restarting
				// ranks don't dial in lockstep. A cancelled context
				// cuts the sleep short and abandons the retry schedule.
				sleep := backoff + time.Duration(jitter.Float64()*float64(backoff)/2)
				if !sleepCtx(cfg.Ctx, sleep) {
					return fmt.Errorf("dist/net: rank %d dial rank %d: %w", t.rank, peer, cfg.Ctx.Err())
				}
				if backoff *= 2; backoff > cfg.BackoffMax {
					backoff = cfg.BackoffMax
				}
			}
			if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
				return fmt.Errorf("dist/net: rank %d dial rank %d: %w", t.rank, peer, cfg.Ctx.Err())
			}
			if attempt < cfg.FailFirstDials {
				lastErr = fmt.Errorf("injected dial fault %d/%d", attempt+1, cfg.FailFirstDials)
				t.retries.Inc()
				continue
			}
			c, err := stdnet.DialTimeout("tcp", cfg.Peers[peer], cfg.DialTimeout)
			if err != nil {
				lastErr = err
				t.retries.Inc()
				continue
			}
			conn = c
			break
		}
		if conn == nil {
			return fmt.Errorf("dist/net: rank %d dial rank %d (%s) after %d attempts: %w",
				t.rank, peer, cfg.Peers[peer], cfg.DialAttempts, lastErr)
		}
		if tc, ok := conn.(*stdnet.TCPConn); ok {
			tc.SetNoDelay(true) // collectives are latency-bound small frames
		}
		if err := writeHandshake(conn, t.size, t.rank, cfg.Generation, cfg.Trace, cfg.DialTimeout); err != nil {
			conn.Close()
			return fmt.Errorf("dist/net: rank %d handshake to rank %d: %w", t.rank, peer, err)
		}
		t.out[peer] = conn
	}
	return nil
}

// sleepCtx sleeps for d, returning false early if ctx is cancelled
// first. A nil ctx is a plain sleep.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if ctx == nil {
		time.Sleep(d)
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}

// handshake layout: magic(4) | cluster size(4) | sender rank(4) |
// generation(4) | trace length(2) | trace context bytes, big endian
// like the frame length prefix. The generation is the supervisor
// restart epoch (the fence acceptPeers checks); the trace frame
// carries the sender's proposed trace id (obs.TraceContext encoding,
// empty when tracing is off) so all ranks of one cluster end up in one
// trace.
func writeHandshake(conn stdnet.Conn, size, rank, gen int, trace string, timeout time.Duration) error {
	buf := make([]byte, 18+len(trace))
	binary.BigEndian.PutUint32(buf[0:], magic)
	binary.BigEndian.PutUint32(buf[4:], uint32(size))
	binary.BigEndian.PutUint32(buf[8:], uint32(rank))
	binary.BigEndian.PutUint32(buf[12:], uint32(gen))
	binary.BigEndian.PutUint16(buf[16:], uint16(len(trace)))
	copy(buf[18:], trace)
	conn.SetWriteDeadline(time.Now().Add(timeout))
	defer conn.SetWriteDeadline(time.Time{})
	_, err := conn.Write(buf)
	return err
}

func readHandshake(conn stdnet.Conn, size int, deadline time.Time) (int, int, string, error) {
	var buf [18]byte
	conn.SetReadDeadline(deadline)
	defer conn.SetReadDeadline(time.Time{})
	if _, err := io.ReadFull(conn, buf[:]); err != nil {
		return 0, 0, "", err
	}
	if got := binary.BigEndian.Uint32(buf[0:]); got != magic {
		return 0, 0, "", fmt.Errorf("bad magic %#08x (version mismatch?)", got)
	}
	if got := int(binary.BigEndian.Uint32(buf[4:])); got != size {
		return 0, 0, "", fmt.Errorf("peer believes cluster size is %d, ours is %d", got, size)
	}
	from := int(binary.BigEndian.Uint32(buf[8:]))
	if from < 0 || from >= size {
		return 0, 0, "", fmt.Errorf("peer rank %d outside [0,%d)", from, size)
	}
	gen := int(binary.BigEndian.Uint32(buf[12:]))
	traceLen := int(binary.BigEndian.Uint16(buf[16:]))
	if traceLen > maxTraceCtx {
		return 0, 0, "", fmt.Errorf("trace context of %d bytes exceeds %d", traceLen, maxTraceCtx)
	}
	trace := ""
	if traceLen > 0 {
		tb := make([]byte, traceLen)
		if _, err := io.ReadFull(conn, tb); err != nil {
			return 0, 0, "", err
		}
		tc, err := obs.ParseTraceContext(string(tb))
		if err != nil {
			return 0, 0, "", fmt.Errorf("peer rank %d: %w", from, err)
		}
		trace = tc.Trace
	}
	return from, gen, trace, nil
}

// Rank returns this endpoint's rank id.
func (t *Transport) Rank() int { return t.rank }

// Size returns the cluster size.
func (t *Transport) Size() int { return t.size }

// TrafficBytes returns the wire bytes this rank has sent (frames plus
// length prefixes).
func (t *Transport) TrafficBytes() int64 { return t.bytes.Value() }

// DialRetries returns how many dial attempts failed (and were retried)
// during connection establishment.
func (t *Transport) DialRetries() int64 { return t.retries.Value() }

// countTimeout classifies an I/O error, bumping the deadline counter
// when the failure was a per-operation timeout.
func (t *Transport) countTimeout(err error) error {
	var ne stdnet.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.deadline.Inc()
	}
	return err
}

// Send writes one length-prefixed frame to rank `to`.
func (t *Transport) Send(to int, frame []byte) error {
	if to < 0 || to >= t.size || to == t.rank || t.out[to] == nil {
		return fmt.Errorf("no outbound connection to rank %d", to)
	}
	if len(frame) > maxFrame {
		return fmt.Errorf("frame of %d bytes exceeds limit", len(frame))
	}
	conn := t.out[to]
	if t.ioTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(t.ioTimeout))
	}
	buf := make([]byte, 4+len(frame))
	binary.BigEndian.PutUint32(buf, uint32(len(frame)))
	copy(buf[4:], frame)
	if _, err := conn.Write(buf); err != nil {
		return t.countTimeout(err)
	}
	t.bytes.Add(int64(len(buf)))
	t.frames.Inc()
	return nil
}

// Recv reads the next length-prefixed frame from rank `from`.
func (t *Transport) Recv(from int) ([]byte, error) {
	if from < 0 || from >= t.size || from == t.rank || t.in[from] == nil {
		return nil, fmt.Errorf("no inbound connection from rank %d", from)
	}
	conn := t.in[from]
	if t.ioTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(t.ioTimeout))
	}
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return nil, t.countTimeout(err)
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size > maxFrame {
		return nil, fmt.Errorf("frame declares %d bytes, over limit", size)
	}
	frame := make([]byte, size)
	if _, err := io.ReadFull(conn, frame); err != nil {
		return nil, t.countTimeout(err)
	}
	return frame, nil
}

// Close shuts the endpoint down: listener first (no new peers), then
// every connection. Callers quiesce the collectives (final barrier)
// before closing, so in the orderly case all frames have been drained
// and close is graceful on both sides.
func (t *Transport) Close() error {
	t.closeOnce.Do(func() {
		var first error
		if t.ln != nil {
			if err := t.ln.Close(); err != nil && first == nil {
				first = err
			}
		}
		for _, conn := range t.out {
			if conn != nil {
				if err := conn.Close(); err != nil && first == nil {
					first = err
				}
			}
		}
		for _, conn := range t.in {
			if conn != nil {
				if err := conn.Close(); err != nil && first == nil {
					first = err
				}
			}
		}
		t.closeErr = first
	})
	return t.closeErr
}

// compile-time interface check
var _ dist.Transport = (*Transport)(nil)
