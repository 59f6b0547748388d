// Package uplink is the client side of a BRISK wire session: the one
// implementation the external sensor uses to ship records to its manager
// and a relay uses to ship its merged stream to a parent manager.
//
// The link is treated as lossy. An Uplink owns the session id and the
// HELLO/resume handshake (pinning the connection to the protocol version
// the peer negotiated); a replay queue of sequence-numbered batches, held
// until the peer acknowledges them, with payload buffers recycled on ack
// and the oldest batches evicted past a byte bound; credit-window
// admission; reconnection with capped, jittered exponential backoff, after
// which the peer reports the last sequence it accepted and the rest is
// replayed (the peer dedupes, giving exactly-once delivery); the dead state
// it degrades to when the retry cap runs out, discarding (and counting)
// whatever is sealed into it so the caller never wedges; and the pending
// loss, which folds evicted batches into a marker carried by a later
// batch. It answers the peer's PROBE, ADJUST, PING, BYE and DATA_ACK
// frames, and its Close tail pumps, awaits acks, says BYE and counts what
// was never acknowledged.
//
// Callers differ in three places, all set in Config: the frame kind
// (DATA or RELAY_DATA, which share the Seq/Count/Payload shape), the tally
// that reads an evicted payload back into a loss count, and the marker
// encoder that places a loss marker into a sealed batch.
package uplink

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"log"
	mrand "math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"brisk/internal/metrics"
	"brisk/internal/record"
	"brisk/internal/vclock"
	"brisk/internal/wire"
)

// DefaultReconnectAttempts is the reconnect cap used when
// Config.MaxReconnectAttempts is zero.
const DefaultReconnectAttempts = 20

// jitter is the ± fraction of uniform noise applied to every backoff
// delay; it keeps a fleet from redialing in lockstep after a manager
// restart.
const jitter = 0.2

// closeGrace bounds each phase of the Close tail: the final sends (as a
// write deadline) and the wait for the peer's last acknowledgements.
const closeGrace = 2 * time.Second

// maxFreeBufs bounds the recycled-payload free list so a burst of large
// batches cannot pin their storage forever.
const maxFreeBufs = 8

// Connection states.
const (
	stateOnline int32 = iota
	stateReconnecting
	stateDead
)

// Config configures an Uplink.
type Config struct {
	// Addr is the peer manager's TCP address.
	Addr string
	// Name identifies this session in the HELLO exchange.
	Name string
	// Kind is the data frame the queue ships: wire.MsgData or
	// wire.MsgRelayData.
	Kind wire.MsgType
	// Tally returns the record count and timestamp range an evicted
	// payload covered, counting the coverage of any loss markers it
	// carried. It runs with the queue lock held.
	Tally func(payload []byte) (count uint64, firstTS, lastTS int64)
	// Mark appends body to dst together with one loss marker for count
	// records covering [firstTS, lastTS], in whichever order keeps the
	// caller's stream timestamp-ordered. It runs with the queue lock held.
	Mark func(dst, body []byte, count uint64, firstTS, lastTS int64) []byte
	// Clock answers the peer's clock probes and takes its adjustments.
	Clock *vclock.Corrected
	// QueueBytes bounds the replay queue; past it the oldest batches are
	// evicted into the pending loss. Default 4 MiB.
	QueueBytes int
	// DialTimeout bounds one connection attempt including the HELLO
	// exchange. Default 5 s.
	DialTimeout time.Duration
	// ReconnectBase is the first backoff delay after a lost connection;
	// it doubles per failed attempt up to ReconnectMax. Defaults 50 ms
	// and 5 s.
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
	// MaxReconnectAttempts caps consecutive failed reconnects per outage
	// before the uplink goes dead. 0 means DefaultReconnectAttempts;
	// negative retries forever.
	MaxReconnectAttempts int
	// ReconnectRand, when non-nil, is the [0,1) source the backoff jitter
	// is drawn from, called only on the reconnector goroutine; nil uses a
	// private PRNG seeded from the session id and the wall clock.
	ReconnectRand func() float64
	// Counters receives the uplink's counts.
	Counters Counters
	// OnFirstSend, when non-nil, sees each batch payload right after its
	// first transmission. It runs with the queue lock held.
	OnFirstSend func(payload []byte)
	// Who prefixes log lines and errors ("exs"); Peer names the far end in
	// them ("manager").
	Who, Peer string
	// Logf logs diagnostics; nil means log.Printf.
	Logf func(format string, args ...any)
}

// Counters are the uplink's counts, owned (and named) by the caller's
// metrics registry; a nil counter is replaced by a private one. Sent
// counts records first written (replays are not counted again), Batches
// every data frame written. Spilled counts records sealed while the link
// was down, Discarded those sealed after giving up, and Dropped those
// evicted, stranded in the queue on giving up, or unacknowledged at
// Close. LossMarkers counts the markers sealed for pending loss and
// MarkedLost the records they cover; Probes and Adjusts count the clock
// sync traffic served.
type Counters struct {
	Sent, Batches, Retransmits, Reconnects *metrics.Counter
	Spilled, Discarded, Dropped            *metrics.Counter
	CreditStalls, LossMarkers, MarkedLost  *metrics.Counter
	Probes, Adjusts                        *metrics.Counter
}

// entry is one sealed batch retained until the peer acknowledges it.
type entry struct {
	seq      uint64
	count    int
	payload  []byte
	sent     bool // written to the current connection
	everSent bool // written to some connection at least once
}

// Uplink is one client session to a manager. Create with Dial, stop with
// Shutdown and Close.
type Uplink struct {
	cfg     Config
	c       Counters
	logf    func(string, ...any)
	session uint64
	ctx     context.Context
	cancel  context.CancelFunc
	jitter  func() float64 // reconnector goroutine only

	connMu       sync.Mutex
	conn         *wire.Conn // nil while disconnected
	raw          net.Conn
	bytesOutBase atomic.Uint64 // BytesOut of finished connections

	node        atomic.Int32
	state       atomic.Int32
	closed      atomic.Bool
	reconnectCh chan struct{}
	done        chan struct{}  // closed by Shutdown
	wg          sync.WaitGroup // control loops + reconnector

	// qMu guards the replay queue; pump holds it across sends so replayed
	// and fresh batches stay sequence-ordered on the wire.
	qMu      sync.Mutex
	queue    []entry
	nextSeq  uint64
	inflight int64 // records sent on this connection, unacknowledged
	// free recycles acked batch payloads into later seals, so a steadily
	// acked stream stops allocating copies.
	free [][]byte
	// Pending loss: records dropped but not yet represented by a sealed
	// loss marker, with the covered timestamp range.
	lossN               uint64
	lossFirst, lossLast int64
	// The data frame pump reuses for every send.
	dataMsg  wire.DataBatch
	relayMsg wire.RelayBatch

	// Written under qMu, read without it, so a stats scrape never waits
	// behind a pump blocked in Send.
	qBytes  atomic.Int64 // payload bytes queued
	queued  atomic.Int64 // records queued
	credit  atomic.Int64 // the peer's grant; -1 without flow control
	stalled atomic.Bool  // last pump pass stopped on exhausted credit
}

// Dial connects to the peer, runs the HELLO exchange, and starts the
// control loop and the reconnector. Canceling ctx aborts any in-flight
// dial, handshake or backoff wait and permanently stops reconnection
// (the uplink goes dead); call Shutdown and Close to release the rest.
func Dial(ctx context.Context, cfg Config) (*Uplink, error) {
	u := newUplink(ctx, cfg)
	conn, _, err := u.connect(false)
	if err != nil {
		u.cancel()
		return nil, err
	}
	u.wg.Add(2)
	go u.controlLoop(conn)
	go u.reconnector()
	return u, nil
}

// newUplink applies defaults and builds an unconnected uplink.
func newUplink(ctx context.Context, cfg Config) *Uplink {
	if cfg.QueueBytes <= 0 {
		cfg.QueueBytes = 4 << 20
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.ReconnectBase <= 0 {
		cfg.ReconnectBase = 50 * time.Millisecond
	}
	if cfg.ReconnectMax <= 0 {
		cfg.ReconnectMax = 5 * time.Second
	}
	if cfg.MaxReconnectAttempts == 0 {
		cfg.MaxReconnectAttempts = DefaultReconnectAttempts
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.NewCorrected(vclock.System{})
	}
	u := &Uplink{
		cfg:         cfg,
		c:           cfg.Counters,
		logf:        cfg.Logf,
		session:     newSessionID(),
		jitter:      cfg.ReconnectRand,
		reconnectCh: make(chan struct{}, 1),
		done:        make(chan struct{}),
	}
	for _, c := range []**metrics.Counter{&u.c.Sent, &u.c.Batches, &u.c.Retransmits,
		&u.c.Reconnects, &u.c.Spilled, &u.c.Dropped, &u.c.Discarded, &u.c.CreditStalls,
		&u.c.LossMarkers, &u.c.MarkedLost, &u.c.Probes, &u.c.Adjusts} {
		if *c == nil {
			*c = new(metrics.Counter)
		}
	}
	if u.logf == nil {
		u.logf = log.Printf
	}
	if u.jitter == nil {
		u.jitter = mrand.New(mrand.NewSource(int64(u.session) ^ time.Now().UnixNano())).Float64
	}
	u.credit.Store(-1)
	u.ctx, u.cancel = context.WithCancel(ctx)
	return u
}

// newSessionID returns a random non-zero session identifier.
func newSessionID() uint64 {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			// Fall back to the clock; uniqueness only needs to hold per
			// manager across the retention window.
			return uint64(time.Now().UnixNano()) | 1
		}
		if id := binary.BigEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
}

// Session returns the resume-session identifier.
func (u *Uplink) Session() uint64 { return u.session }

// Node returns the peer-assigned node id.
func (u *Uplink) Node() int32 { return u.node.Load() }

// Online reports whether the connection is currently up.
func (u *Uplink) Online() bool { return u.state.Load() == stateOnline }

// Dead reports whether the uplink gave up on its peer.
func (u *Uplink) Dead() bool { return u.state.Load() == stateDead }

// QueuedBytes returns the replay queue's current payload size.
func (u *Uplink) QueuedBytes() int { return int(u.qBytes.Load()) }

// Backlog returns the records currently queued (unacknowledged).
func (u *Uplink) Backlog() int64 { return u.queued.Load() }

// CreditWindow returns the peer's latest grant in records, or -1 when it
// runs without flow control.
func (u *Uplink) CreditWindow() int64 { return u.credit.Load() }

// Stalled reports whether the last pump pass stopped on exhausted credit.
func (u *Uplink) Stalled() bool { return u.stalled.Load() }

// BytesOut returns the wire bytes written across all connections.
func (u *Uplink) BytesOut() uint64 {
	u.connMu.Lock()
	var live uint64
	if u.conn != nil {
		live = u.conn.BytesOut()
	}
	u.connMu.Unlock()
	return u.bytesOutBase.Load() + live
}

// connect dials the peer, runs the HELLO exchange, applies the ack (node
// id, credit grant, resume point), replays the queue, and installs the
// connection. Canceling the context aborts the handshake and the replay
// as well as the TCP dial.
func (u *Uplink) connect(resume bool) (*wire.Conn, *wire.HelloAck, error) {
	d := net.Dialer{Timeout: u.cfg.DialTimeout}
	raw, err := d.DialContext(u.ctx, "tcp", u.cfg.Addr)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: dial %s: %w", u.cfg.Who, u.cfg.Peer, err)
	}
	stop := context.AfterFunc(u.ctx, func() { raw.Close() })
	conn, ack, err := u.handshake(raw, resume)
	if err == nil {
		u.node.Store(ack.Node)
		u.applyWindow(ack.Window)
		if ack.Resumed {
			// Everything the peer already accepted is delivered.
			u.ackTo(ack.LastSeq)
		}
		// Replay the backlog before going online so fresh batches cannot
		// overtake older sequence numbers. A failure here abandons a
		// connection markDisconnected never saw, so the batches this pump
		// wrote into the dead socket must be re-flagged by hand.
		if err = u.pump(conn); err != nil {
			u.resetTransmitState()
		}
	}
	if err == nil {
		u.connMu.Lock()
		if stop() {
			u.raw, u.conn = raw, conn
		} else {
			err = fmt.Errorf("%s: connect: %w", u.cfg.Who, u.ctx.Err())
		}
		u.connMu.Unlock()
	}
	if err != nil {
		stop()
		raw.Close()
		return nil, nil, err
	}
	return conn, ack, nil
}

// handshake runs the HELLO exchange on a fresh connection, bounded by
// DialTimeout.
func (u *Uplink) handshake(raw net.Conn, resume bool) (*wire.Conn, *wire.HelloAck, error) {
	raw.SetDeadline(time.Now().Add(u.cfg.DialTimeout))
	conn := wire.NewConn(raw)
	hello := &wire.Hello{
		Version: wire.ProtocolVersion,
		Name:    u.cfg.Name,
		Session: u.session,
		Resume:  resume,
	}
	if err := conn.Send(hello); err != nil {
		return nil, nil, fmt.Errorf("%s: hello: %w", u.cfg.Who, err)
	}
	msg, err := conn.Recv()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: hello ack: %w", u.cfg.Who, err)
	}
	ack, ok := msg.(*wire.HelloAck)
	if !ok {
		return nil, nil, fmt.Errorf("%s: expected HELLO_ACK, got %v", u.cfg.Who, msg.Type())
	}
	if ack.Version >= wire.MinProtocolVersion && ack.Version <= wire.ProtocolVersion {
		// Pin the connection to the version the peer negotiated.
		conn.SetVersion(ack.Version)
	}
	raw.SetDeadline(time.Time{})
	return conn, ack, nil
}

// liveConn returns the current connection, or nil while disconnected.
func (u *Uplink) liveConn() *wire.Conn {
	u.connMu.Lock()
	defer u.connMu.Unlock()
	return u.conn
}

// applyWindow installs a credit grant from a HELLO_ACK or DATA_ACK.
// Window 0 means the peer runs without flow control.
func (u *Uplink) applyWindow(w uint32) {
	if w == 0 {
		u.credit.Store(-1)
	} else {
		u.credit.Store(int64(w))
	}
}

// AddLoss folds dropped records into the pending loss; the next sealed
// batch carries a loss marker representing them.
func (u *Uplink) AddLoss(count uint64, firstTS, lastTS int64) {
	u.qMu.Lock()
	u.addLossLocked(count, firstTS, lastTS)
	u.qMu.Unlock()
}

// addLossLocked is AddLoss for callers holding qMu.
func (u *Uplink) addLossLocked(count uint64, firstTS, lastTS int64) {
	if count == 0 {
		return
	}
	if u.lossN == 0 {
		u.lossFirst, u.lossLast = firstTS, lastTS
	} else {
		u.lossFirst = min(u.lossFirst, firstTS)
		u.lossLast = max(u.lossLast, lastTS)
	}
	u.lossN += count
}

// PendingLoss reports whether dropped records await a loss marker.
func (u *Uplink) PendingLoss() bool {
	u.qMu.Lock()
	defer u.qMu.Unlock()
	return u.lossN > 0
}

// Tally walks a payload of records, each preceded by prefix bytes (0 for
// DATA, the 4-byte origin node id for RELAY_DATA), and returns the
// data-record count and timestamp range it covers, folding in the
// covered counts of any loss markers it carries so a dropped marker's
// losses are never forgotten. Evictions only happen under overload, so
// the decode walk is off the steady-state path.
func Tally(payload []byte, prefix int) (count uint64, firstTS, lastTS int64) {
	first := true
	note := func(ts int64) {
		if first {
			firstTS, lastTS, first = ts, ts, false
			return
		}
		firstTS = min(firstTS, ts)
		lastTS = max(lastTS, ts)
	}
	for len(payload) >= prefix {
		payload = payload[prefix:]
		rec, n, err := record.Decode(payload)
		if err != nil || n == 0 {
			break
		}
		payload = payload[n:]
		if c, f, l, ok := record.LossInfo(&rec); ok {
			count += c
			note(f)
			note(l)
			continue
		}
		count++
		if rec.HasTS {
			note(rec.TS)
		}
	}
	return count, firstTS, lastTS
}

// Seal copies one batch of count records into the replay queue under the
// next sequence number and reports whether anything was queued. Pending
// loss rides along as a marker (through Config.Mark), so a batch may be
// sealed with count 0 to ship a marker alone. The copy reuses storage
// released by earlier acks; past QueueBytes the oldest batches are
// evicted into the pending loss, never the newest. Once the uplink is
// dead, the batch and the pending loss are discarded and counted.
func (u *Uplink) Seal(body []byte, count int) bool {
	u.qMu.Lock()
	if u.state.Load() == stateDead {
		// No link will ever carry a marker again; the drops stay visible
		// through the counters.
		u.lossN, u.lossFirst, u.lossLast = 0, 0, 0
		u.qMu.Unlock()
		u.c.Discarded.Add(uint64(count))
		return false
	}
	if count == 0 && u.lossN == 0 {
		u.qMu.Unlock()
		return false
	}
	var cp []byte
	if n := len(u.free); n > 0 {
		cp = u.free[n-1]
		u.free = u.free[:n-1]
	}
	if n := u.lossN; n > 0 {
		cp = u.cfg.Mark(cp, body, n, u.lossFirst, u.lossLast)
		u.lossN, u.lossFirst, u.lossLast = 0, 0, 0
		count++
		u.c.LossMarkers.Inc()
		u.c.MarkedLost.Add(n)
	} else {
		cp = append(cp, body...)
	}
	u.nextSeq++
	u.queue = append(u.queue, entry{seq: u.nextSeq, count: count, payload: cp})
	u.qBytes.Add(int64(len(cp)))
	u.queued.Add(int64(count))
	var evicted uint64
	for u.qBytes.Load() > int64(u.cfg.QueueBytes) && len(u.queue) > 1 {
		old := u.queue[0]
		u.queue = u.queue[1:]
		u.release(&old)
		if n, f, l := u.cfg.Tally(old.payload); n > 0 {
			u.addLossLocked(n, f, l)
		}
		evicted += uint64(old.count)
	}
	u.qMu.Unlock()
	if evicted > 0 {
		u.c.Dropped.Add(evicted)
	}
	if u.state.Load() != stateOnline {
		u.c.Spilled.Add(uint64(count))
	}
	return true
}

// release takes a batch leaving the queue out of the in-flight, byte and
// record counts and recycles its payload. Caller holds qMu.
func (u *Uplink) release(ent *entry) {
	if ent.sent {
		u.inflight -= int64(ent.count)
	}
	u.qBytes.Add(-int64(len(ent.payload)))
	u.queued.Add(-int64(ent.count))
	if len(u.free) < maxFreeBufs {
		u.free = append(u.free, ent.payload[:0])
	}
}

// Pump writes every sendable queued batch to the live connection, if
// there is one.
func (u *Uplink) Pump() {
	if c := u.liveConn(); c != nil {
		if err := u.pump(c); err != nil {
			u.markDisconnected(c, err)
		}
	}
}

// pump writes every not-yet-sent queued batch to c in sequence order.
// Holding qMu across the sends keeps replays and fresh batches ordered.
//
// Under credit flow control a batch is only sent while the in-flight
// record count fits the peer's window — except that the first batch is
// always sendable (the grant is never zero, and a halt must still leave
// one batch in flight whose ack will carry the next grant). Exhausted
// credit stops the pass; the next DATA_ACK's grant resumes it.
func (u *Uplink) pump(c *wire.Conn) error {
	u.qMu.Lock()
	defer u.qMu.Unlock()
	blocked := false
	for i := range u.queue {
		ent := &u.queue[i]
		if ent.sent {
			continue
		}
		if w := u.credit.Load(); w >= 0 && u.inflight > 0 && u.inflight+int64(ent.count) > w {
			blocked = true
			if !u.stalled.Swap(true) {
				u.c.CreditStalls.Inc()
			}
			break
		}
		if err := c.Send(u.frame(ent)); err != nil {
			return err
		}
		ent.sent = true
		u.inflight += int64(ent.count)
		u.c.Batches.Inc()
		if ent.everSent {
			u.c.Retransmits.Inc()
			continue
		}
		ent.everSent = true
		u.c.Sent.Add(uint64(ent.count))
		if u.cfg.OnFirstSend != nil {
			u.cfg.OnFirstSend(ent.payload)
		}
	}
	if !blocked {
		u.stalled.Store(false)
	}
	return nil
}

// frame fills the reused data frame of the configured kind. Caller holds
// qMu.
func (u *Uplink) frame(ent *entry) wire.Message {
	if u.cfg.Kind == wire.MsgRelayData {
		u.relayMsg = wire.RelayBatch{Seq: ent.seq, Count: uint32(ent.count), Payload: ent.payload}
		return &u.relayMsg
	}
	u.dataMsg = wire.DataBatch{Seq: ent.seq, Count: uint32(ent.count), Payload: ent.payload}
	return &u.dataMsg
}

// ackTo releases every queued batch with sequence ≤ seq.
func (u *Uplink) ackTo(seq uint64) {
	u.qMu.Lock()
	for len(u.queue) > 0 && u.queue[0].seq <= seq {
		u.release(&u.queue[0])
		u.queue = u.queue[1:]
	}
	if len(u.queue) == 0 {
		u.queue = nil // let the backing array go
	}
	u.inflight = max(u.inflight, 0)
	u.qMu.Unlock()
}

// markDisconnected tears down the given connection (if it is still the
// current one), flags queued batches for retransmission, and wakes the
// reconnector. Safe to call from any goroutine; duplicate reports against
// the same connection are ignored.
func (u *Uplink) markDisconnected(c *wire.Conn, err error) {
	u.connMu.Lock()
	if u.conn != c || c == nil {
		u.connMu.Unlock()
		return
	}
	u.bytesOutBase.Add(c.BytesOut())
	raw := u.raw
	u.conn, u.raw = nil, nil
	u.connMu.Unlock()
	raw.Close()
	u.resetTransmitState()
	if u.closed.Load() {
		return
	}
	if u.state.CompareAndSwap(stateOnline, stateReconnecting) {
		u.logf("%s: %s connection lost (%v), reconnecting", u.cfg.Who, u.cfg.Peer, err)
	}
	select {
	case u.reconnectCh <- struct{}{}:
	default:
	}
}

// resetTransmitState flags every queued batch for retransmission and
// clears the in-flight window. It must run whenever a connection is
// abandoned — including a redial whose replay failed before the link
// went online. Skipping it leaves sent-but-undelivered batches marked
// sent: the next replay pass would omit them, and a cumulative ack for
// a later sequence (the peer tolerates gaps because eviction creates
// legitimate ones) would then release them silently.
func (u *Uplink) resetTransmitState() {
	u.qMu.Lock()
	for i := range u.queue {
		u.queue[i].sent = false
	}
	u.inflight = 0 // nothing is in flight on a dead link
	u.stalled.Store(false)
	u.qMu.Unlock()
}

// dropQueue empties the queue and counts its records as dropped.
func (u *Uplink) dropQueue() {
	u.qMu.Lock()
	var lost uint64
	for _, ent := range u.queue {
		lost += uint64(ent.count)
	}
	u.queue = nil
	u.qBytes.Store(0)
	u.queued.Store(0)
	u.inflight = 0
	u.stalled.Store(false)
	u.qMu.Unlock()
	u.c.Dropped.Add(lost)
}

// markDead gives up on the peer permanently: the queue is discarded
// (counted) and later seals are discarded too. A closing uplink is left
// to Close's own accounting.
func (u *Uplink) markDead(reason string) {
	if u.closed.Load() || u.state.Swap(stateDead) == stateDead {
		return
	}
	u.dropQueue()
	u.logf("%s: giving up on %s (%s), discarding records", u.cfg.Who, u.cfg.Peer, reason)
}

// backoffDelay computes the exponential-backoff delay for the given
// 0-based attempt: base·2^attempt capped at max, with ±jitter uniform
// noise drawn from rnd (a [0,1) source), floored at 1 ms so a zero base
// cannot spin-dial.
func backoffDelay(attempt int, base, max time.Duration, rnd func() float64) time.Duration {
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	d = time.Duration(float64(d) * (1 + jitter*(2*rnd()-1)))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// Backoff is the delay the reconnector sleeps before the given 0-based
// attempt: the configured schedule with jitter drawn from the (injectable)
// source. Call it only where the reconnector cannot run concurrently.
func (u *Uplink) Backoff(attempt int) time.Duration {
	return backoffDelay(attempt, u.cfg.ReconnectBase, u.cfg.ReconnectMax, u.jitter)
}

// reconnector owns redialing: each outage runs one retry schedule.
func (u *Uplink) reconnector() {
	defer u.wg.Done()
	for {
		select {
		case <-u.done:
			return
		case <-u.reconnectCh:
		}
		if u.state.Load() == stateReconnecting && !u.reconnectLoop() {
			return
		}
	}
}

// reconnectLoop runs one outage's retry schedule: it sleeps through the
// backoff, redials with the session id, and lets connect trim the queue
// to the peer's resume point and replay the rest. It returns false when
// the reconnector should exit (shutdown or permanent give-up).
func (u *Uplink) reconnectLoop() bool {
	limit := u.cfg.MaxReconnectAttempts
	for attempt := 0; ; attempt++ {
		if limit >= 0 && attempt >= limit {
			u.markDead(fmt.Sprintf("retry cap %d reached", limit))
			return false
		}
		timer := time.NewTimer(u.Backoff(attempt))
		select {
		case <-u.done:
			timer.Stop()
			return false
		case <-u.ctx.Done():
			timer.Stop()
			u.markDead("context canceled")
			return false
		case <-timer.C:
		}
		conn, ack, err := u.connect(true)
		if err != nil {
			if u.ctx.Err() != nil {
				u.markDead("context canceled")
				return false
			}
			continue
		}
		u.state.Store(stateOnline)
		u.c.Reconnects.Inc()
		u.logf("%s: reconnected to %s as node %d (resumed=%v)", u.cfg.Who, u.cfg.Peer, ack.Node, ack.Resumed)
		u.wg.Add(1)
		go u.controlLoop(conn)
		// Catch anything sealed while we were replaying.
		if err := u.pump(conn); err != nil {
			u.markDisconnected(conn, err)
		}
		return true
	}
}

// controlLoop services the peer's messages on one connection: clock
// probes, adjustments, batch acknowledgements and heartbeats. It exits
// when the connection dies, handing recovery to the reconnector.
func (u *Uplink) controlLoop(c *wire.Conn) {
	defer u.wg.Done()
	for {
		msg, err := c.Recv()
		if err != nil {
			if !u.closed.Load() {
				u.markDisconnected(c, err)
			}
			return
		}
		switch t := msg.(type) {
		case *wire.Probe:
			u.c.Probes.Inc()
			reply := &wire.ProbeReply{
				Seq:        t.Seq,
				MasterSend: t.MasterSend,
				SlaveTime:  u.cfg.Clock.NowMicros(),
			}
			if err := c.Send(reply); err != nil {
				u.markDisconnected(c, err)
				return
			}
		case *wire.Adjust:
			u.c.Adjusts.Inc()
			u.cfg.Clock.Adjust(t.DeltaMicros)
			if t.RatePPB >= 0 {
				// Model-based master: track the reference clock between
				// probes by extrapolating the correction at this rate.
				u.cfg.Clock.SetRatePPM(float64(t.RatePPB) / 1000)
			}
		case *wire.DataAck:
			u.ackTo(t.Seq)
			u.applyWindow(t.Window)
			// The ack both freed credit and (possibly) carried a fresh
			// grant, so batches parked on an exhausted window can go now.
			if err := u.pump(c); err != nil {
				u.markDisconnected(c, err)
				return
			}
		case *wire.Ping:
			if err := c.Send(&wire.Pong{Seq: t.Seq}); err != nil {
				u.markDisconnected(c, err)
				return
			}
		case *wire.Bye:
			// The peer announced shutdown; treat it like a lost link so a
			// restarted peer picks the session back up.
			u.markDisconnected(c, fmt.Errorf("%s sent BYE", u.cfg.Peer))
			return
		default:
			u.logf("%s: unexpected %v from %s", u.cfg.Who, msg.Type(), u.cfg.Peer)
			u.markDisconnected(c, fmt.Errorf("unexpected %v", msg.Type()))
			return
		}
	}
}

// Shutdown begins closing: it aborts any in-flight dial, handshake or
// backoff wait, stops reconnection, and arms a write deadline on the live
// connection so no later send — the caller's final seals and pumps
// included — can block on a wedged peer for longer than the grace
// period. It reports whether this call began the shutdown.
func (u *Uplink) Shutdown() bool {
	if u.closed.Swap(true) {
		return false
	}
	u.cancel()
	u.armWriteDeadline()
	close(u.done)
	return true
}

// armWriteDeadline bounds every later send on the live connection by the
// grace period.
func (u *Uplink) armWriteDeadline() {
	u.connMu.Lock()
	if u.raw != nil {
		u.raw.SetWriteDeadline(time.Now().Add(closeGrace))
	}
	u.connMu.Unlock()
}

// Close finishes what Shutdown began (and begins it if needed): it pumps
// whatever the caller sealed last, waits (bounded) for the peer to
// acknowledge the tail, announces BYE and disconnects. Records still
// unacknowledged at that point are dropped and counted. Call it once.
func (u *Uplink) Close() error {
	if !u.Shutdown() {
		// The caller's own flush ran since Shutdown; the tail gets a
		// fresh grace period.
		u.armWriteDeadline()
	}
	u.Pump()
	// Closing the socket while acknowledgements are still in flight would
	// make the peer's ack writes hit a closed socket — a TCP reset that
	// destroys the final batches sitting unread in its receive buffer.
	deadline := time.Now().Add(closeGrace)
	for time.Now().Before(deadline) && u.queued.Load() > 0 && u.Online() && u.liveConn() != nil {
		time.Sleep(500 * time.Microsecond)
	}
	u.connMu.Lock()
	c, raw := u.conn, u.raw
	u.conn, u.raw = nil, nil
	u.connMu.Unlock()
	var err error
	if c != nil {
		u.bytesOutBase.Add(c.BytesOut())
		_ = c.Send(&wire.Bye{}) // best effort: the peer resumes or expires the session either way
		err = raw.Close()       // unblocks the control loop's Recv
	}
	u.wg.Wait()
	u.dropQueue()
	return err
}
