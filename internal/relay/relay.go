// Package relay implements the intermediate tier of a hierarchical
// (federated) BRISK deployment: a relay owns a regional fleet of
// external sensors — running the full manager pipeline against them
// (per-session decode, on-line sort, causal matching, clock sync) — and
// forwards its already-monotone merged stream upward to a parent ISM
// over the ordinary wire protocol as one high-rate session.
//
// The relay is two halves bolted together: downstream, an embedded
// ism.Manager; upstream, an internal/uplink session shipping RelayBatch
// frames. What the relay itself owns is the joint:
//
//   - the Forward tap, which encodes every record the downstream manager
//     emits (origin-attributed, loss markers included) as a node-prefixed
//     entry — origin ids rebased by NodeBase so they stay globally unique
//     across relays, timestamps patched into the parent's frame — into
//     the batch under assembly;
//   - sealing, which hands that batch to the uplink's replay queue every
//     BatchRecords records or FlushInterval, with a node-prefixed loss
//     marker at its head whenever uplink evictions are pending;
//   - the GateBacklog count: the uplink's unacknowledged backlog counts
//     toward the downstream ack-gate occupancy, so a parent withholding
//     acks closes this tier's gate and the halt propagates to the leaves.
//
// Clock correction composes per hop: the relay's child-tier sync master
// runs on the relay's raw clock (children converge to the relay frame),
// the parent's probes are answered with the relay's corrected clock and
// its adjustments accumulate in that correction, and every forwarded
// timestamp is patched by the correction at encode time — so a leaf
// record reaches the root in the root frame with error bounded by the
// sum of the per-hop residuals.
//
// Loss markers never disappear: a marker emitted downstream is forwarded
// like any record, and batches evicted from the uplink queue are folded
// (marker coverage included) into the uplink's pending loss, whose next
// marker rides at the head of a later batch. The composed contract
// "acked ⇒ emitted at the root or represented by a loss marker" therefore
// holds across both hops.
package relay

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"brisk/internal/ism"
	"brisk/internal/metrics"
	"brisk/internal/record"
	"brisk/internal/uplink"
	"brisk/internal/vclock"
	"brisk/internal/wire"
)

// Config configures a Relay. Addr and Parent are required.
type Config struct {
	// Addr is the downstream TCP listen address for this relay's
	// regional sensor fleet (port 0 for ephemeral; see Relay.Addr).
	Addr string
	// Parent is the parent manager's address the merged stream is
	// forwarded to.
	Parent string
	// Name is the node name announced upstream. Default "relay".
	Name string
	// NodeBase is added to every forwarded origin node id (and stamps
	// uplink-synthesized loss markers), keeping origins globally unique
	// when several relays feed one root: give relay i a base of
	// i×(its fleet size).
	NodeBase int32
	// Clock is the relay's raw local clock; nil means the system clock.
	// The downstream manager (and so the child-tier sync master) runs
	// directly on it; the uplink wraps it in the corrected clock the
	// parent's sync rounds adjust.
	Clock vclock.Clock
	// ISM tunes the downstream manager (sorter, shards, watermarks,
	// sync cadence, …). Addr, Clock, Forward, GateBacklog and Metrics
	// are overridden by the relay.
	ISM ism.Config
	// BatchRecords is how many forwarded records one uplink batch
	// carries before it is sealed. Default 256.
	BatchRecords int
	// FlushInterval bounds how long a partial batch may wait before
	// shipping. Default 2 ms.
	FlushInterval time.Duration
	// QueueBytes bounds the uplink retransmit queue; the oldest sealed
	// batch is evicted (folded into a loss marker) past it. Default 4 MiB.
	QueueBytes int
	// DialTimeout bounds one parent dial + handshake. Default 5 s.
	DialTimeout time.Duration
	// ReconnectBase and ReconnectMax shape the uplink's exponential
	// backoff. Defaults 50 ms and 5 s.
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
	// MaxReconnectAttempts caps one outage's retries; 0 means
	// uplink.DefaultReconnectAttempts, negative retries forever.
	MaxReconnectAttempts int
	// ReconnectRand, when non-nil, is the [0,1) source the uplink's
	// ±20% backoff jitter is drawn from. Injectable so backoff schedules
	// are deterministic under test; nil uses a private PRNG seeded from
	// the session id and the wall clock.
	ReconnectRand func() float64
	// Metrics, when non-nil, receives both the relay's uplink series and
	// the embedded manager's series; nil means a private registry.
	Metrics *metrics.Registry
	// Logf logs diagnostics; nil means log.Printf.
	Logf func(format string, args ...any)
}

// Stats is a snapshot of relay counters.
type Stats struct {
	// Node is the parent-assigned node id of the uplink session.
	Node int32
	// Session is the uplink's resume-session identifier.
	Session uint64
	// Online reports a live parent connection.
	Online bool
	// Forwarded counts records tapped off the downstream emission.
	Forwarded uint64
	// Shipped counts records first-sent upstream (marker records
	// included); Batches counts RelayBatch frames, retransmits included.
	Shipped uint64
	Batches uint64
	// Retransmits counts batches replayed after a session resume.
	Retransmits uint64
	// Reconnects counts successful uplink reconnections.
	Reconnects uint64
	// Dropped counts records discarded from the uplink queue (eviction,
	// unacknowledged at close, or forwarded after the uplink gave up on
	// the parent); every evicted record is folded into a loss marker
	// first.
	Dropped uint64
	// LossMarkers counts uplink-synthesized markers; MarkedLost is the
	// record count they testify to.
	LossMarkers uint64
	MarkedLost  uint64
	// BacklogRecords is the current unacknowledged uplink backlog (the
	// quantity GateBacklog feeds the downstream ack gate).
	BacklogRecords int64
	// QueuedBytes is the sealed-batch queue's current size.
	QueuedBytes int
	// CreditWindow is the parent's current grant (-1 without flow
	// control); CreditStalls counts pump passes stopped on empty credit.
	CreditWindow int64
	CreditStalls uint64
	// Probes and Adjusts count parent sync traffic served; Correction is
	// the accumulated relay→root clock correction in µs.
	Probes     uint64
	Adjusts    uint64
	Correction int64
	// ISM is the embedded downstream manager's snapshot.
	ISM ism.Stats
}

// Relay is one intermediate-tier node. Create with New, stop with Close.
type Relay struct {
	cfg   Config
	logf  func(string, ...any)
	clock *vclock.Corrected
	mgr   *ism.Manager
	up    *uplink.Uplink

	reg       *metrics.Registry
	ctr       uplink.Counters
	forwarded *metrics.Counter

	// curMu guards the batch under assembly: forwarded entries accumulate
	// in cur until a seal moves them into the uplink's queue.
	curMu sync.Mutex
	cur   []byte
	curN  atomic.Int64 // records in cur; read without curMu by GateBacklog

	done     chan struct{}
	flushNow chan struct{}
	wgFlush  sync.WaitGroup
}

// New creates a relay: it starts the downstream manager on cfg.Addr,
// dials the parent, and begins forwarding.
func New(cfg Config) (*Relay, error) {
	if cfg.Addr == "" || cfg.Parent == "" {
		return nil, errors.New("relay: Config.Addr and Config.Parent are required")
	}
	if cfg.Name == "" {
		cfg.Name = "relay"
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.System{}
	}
	if cfg.BatchRecords <= 0 {
		cfg.BatchRecords = 256
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 2 * time.Millisecond
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	r := &Relay{
		cfg:      cfg,
		logf:     logf,
		clock:    vclock.NewCorrected(cfg.Clock),
		done:     make(chan struct{}),
		flushNow: make(chan struct{}, 1),
	}
	r.registerCounters(cfg.Metrics)

	mcfg := cfg.ISM
	mcfg.Addr = cfg.Addr
	mcfg.Clock = cfg.Clock
	mcfg.Forward = r.forward
	mcfg.GateBacklog = func() int { return int(r.backlog()) }
	mcfg.Metrics = r.reg
	if mcfg.Logf == nil {
		mcfg.Logf = logf
	}
	mgr, err := ism.New(mcfg)
	if err != nil {
		return nil, fmt.Errorf("relay: downstream manager: %w", err)
	}
	r.mgr = mgr

	r.up, err = uplink.Dial(context.Background(), uplink.Config{
		Addr:                 cfg.Parent,
		Name:                 cfg.Name,
		Kind:                 wire.MsgRelayData,
		Tally:                tallyPrefixed,
		Mark:                 r.mark,
		Clock:                r.clock,
		QueueBytes:           cfg.QueueBytes,
		DialTimeout:          cfg.DialTimeout,
		ReconnectBase:        cfg.ReconnectBase,
		ReconnectMax:         cfg.ReconnectMax,
		MaxReconnectAttempts: cfg.MaxReconnectAttempts,
		ReconnectRand:        cfg.ReconnectRand,
		Counters:             r.ctr,
		Who:                  "relay",
		Peer:                 "parent",
		Logf:                 logf,
	})
	if err != nil {
		mgr.Close()
		return nil, err
	}
	r.registerViews()
	mgr.Start()
	r.wgFlush.Add(1)
	go r.flushLoop()
	return r, nil
}

// registerCounters creates (or adopts) the registry and binds the relay's
// live counters; eviction and discard after giving up share Dropped.
func (r *Relay) registerCounters(reg *metrics.Registry) {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	r.reg = reg
	r.forwarded = reg.Counter(metrics.Desc{Name: "brisk_relay_forwarded_total",
		Help: "records tapped off the downstream emission into the uplink", Unit: "records"})
	dropped := reg.Counter(metrics.Desc{Name: "brisk_relay_dropped_total",
		Help: "records discarded from the uplink queue (evicted into a loss marker, unacknowledged at close, or forwarded after the uplink gave up)",
		Unit: "records"})
	r.ctr = uplink.Counters{
		Sent: reg.Counter(metrics.Desc{Name: "brisk_relay_shipped_total",
			Help: "records first-sent to the parent (uplink markers included)", Unit: "records"}),
		Batches: reg.Counter(metrics.Desc{Name: "brisk_relay_batches_total",
			Help: "relay-batch frames written upstream, retransmits included", Unit: "batches"}),
		Retransmits: reg.Counter(metrics.Desc{Name: "brisk_relay_retransmit_batches_total",
			Help: "uplink batches replayed after a session resume", Unit: "batches"}),
		Reconnects: reg.Counter(metrics.Desc{Name: "brisk_relay_reconnects_total",
			Help: "successful uplink reconnections to the parent", Unit: "connections"}),
		Dropped:   dropped,
		Discarded: dropped,
		LossMarkers: reg.Counter(metrics.Desc{Name: "brisk_relay_loss_markers_total",
			Help: "loss markers synthesized by the uplink for evicted batches", Unit: "markers"}),
		MarkedLost: reg.Counter(metrics.Desc{Name: "brisk_relay_marked_lost_total",
			Help: "records represented by uplink-synthesized loss markers", Unit: "records"}),
		CreditStalls: reg.Counter(metrics.Desc{Name: "brisk_relay_credit_stalls_total",
			Help: "uplink pump passes stopped on exhausted parent credit", Unit: "stalls"}),
		Probes: reg.Counter(metrics.Desc{Name: "brisk_relay_clock_probes_total",
			Help: "parent clock-synchronization probes answered", Unit: "probes"}),
		Adjusts: reg.Counter(metrics.Desc{Name: "brisk_relay_clock_adjusts_total",
			Help: "parent clock adjustments applied to the relay correction", Unit: "adjustments"}),
	}
}

// registerViews binds the func-backed series over the uplink and clock.
func (r *Relay) registerViews() {
	r.reg.GaugeFunc(metrics.Desc{Name: "brisk_relay_backlog_records",
		Help: "unacknowledged uplink backlog counted toward the downstream ack gate", Unit: "records"},
		func() float64 { return float64(r.backlog()) })
	r.reg.GaugeFunc(metrics.Desc{Name: "brisk_relay_correction_microseconds",
		Help: "accumulated relay-to-root clock correction (this hop's offset estimate)", Unit: "microseconds"},
		func() float64 { return float64(r.clock.Correction()) })
	r.reg.GaugeFunc(metrics.Desc{Name: "brisk_relay_online",
		Help: "1 while the uplink session is attached to the parent"},
		func() float64 {
			if r.up.Online() {
				return 1
			}
			return 0
		})
}

// Metrics returns the registry holding the relay's (and its embedded
// manager's) series.
func (r *Relay) Metrics() *metrics.Registry { return r.reg }

// Manager returns the embedded downstream manager (for its Addr, buffer
// cursors and stats).
func (r *Relay) Manager() *ism.Manager { return r.mgr }

// Addr returns the downstream listen address sensors dial.
func (r *Relay) Addr() string { return r.mgr.Addr() }

// Node returns the parent-assigned uplink node id.
func (r *Relay) Node() int32 { return r.up.Node() }

// Clock returns the relay's corrected clock (raw clock plus the
// correction accumulated from parent sync rounds).
func (r *Relay) Clock() *vclock.Corrected { return r.clock }

// backlog is the forwarded-but-unacknowledged record count: the batch
// under assembly plus the uplink's queue.
func (r *Relay) backlog() int64 { return r.curN.Load() + r.up.Backlog() }

// forward is the downstream manager's Forward tap: it encodes one
// emitted record as a node-prefixed entry into the batch under
// assembly, rebasing the origin id and patching the timestamp into the
// parent frame. Runs on the downstream merger with its pipeline lock
// held, so it only appends — sealing moves the batch to the queue but
// never touches the network.
func (r *Relay) forward(rec *record.Record) {
	corr := r.clock.Correction()
	r.curMu.Lock()
	mark := len(r.cur)
	buf := appendNode(r.cur, rec.Node+r.cfg.NodeBase)
	var err error
	if corr != 0 && rec.HasTS {
		// Shift into the parent frame for the encode only; the record is
		// borrowed and feeds the local sinks after us.
		rec.TS += corr
		buf, err = rec.Append(buf)
		rec.TS -= corr
	} else {
		buf, err = rec.Append(buf)
	}
	if err != nil {
		r.cur = buf[:mark]
		r.curMu.Unlock()
		r.logf("relay: encode for uplink: %v", err)
		return
	}
	r.cur = buf
	full := r.curN.Add(1) >= int64(r.cfg.BatchRecords)
	if full {
		r.sealLocked()
	}
	r.curMu.Unlock()
	r.forwarded.Inc()
	if full {
		r.kick()
	}
}

// kick asks the flush loop to pump now.
func (r *Relay) kick() {
	select {
	case r.flushNow <- struct{}{}:
	default:
	}
}

// appendNode appends a 4-byte big-endian origin node id, the RELAY_DATA
// entry prefix.
func appendNode(buf []byte, node int32) []byte {
	return binary.BigEndian.AppendUint32(buf, uint32(node))
}

// mark is the relay's marker encoder: a loss marker stamped with
// NodeBase at the head of the batch — the evicted records it covers are
// older than anything sealed after them — then the batch's entries.
func (r *Relay) mark(dst, body []byte, count uint64, firstTS, lastTS int64) []byte {
	m := record.NewLossMarker(count, firstTS, lastTS)
	dst, _ = m.Append(appendNode(dst, r.cfg.NodeBase)) // a three-field marker always encodes
	return append(dst, body...)
}

// tallyPrefixed sums the records of one node-prefixed uplink payload,
// folding nested loss markers into the count and covered range — so an
// evicted batch's own markers survive into the replacement marker.
func tallyPrefixed(payload []byte) (count uint64, firstTS, lastTS int64) {
	return uplink.Tally(payload, 4)
}

// seal hands the batch under assembly to the uplink's queue.
func (r *Relay) seal() {
	r.curMu.Lock()
	r.sealLocked()
	r.curMu.Unlock()
}

// sealLocked is seal for callers holding curMu.
func (r *Relay) sealLocked() {
	r.up.Seal(r.cur, int(r.curN.Load()))
	r.cur = r.cur[:0]
	r.curN.Store(0)
}

// flushLoop seals aged partial batches and pumps the queue, on the
// flush interval and on demand.
func (r *Relay) flushLoop() {
	defer r.wgFlush.Done()
	ticker := time.NewTicker(r.cfg.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-r.flushNow:
		case <-ticker.C:
			r.seal()
		}
		r.up.Pump()
	}
}

// Stats returns a snapshot of the relay counters. The uplink part reads
// no lock its pump holds, so it answers while the parent link is stalled.
func (r *Relay) Stats() Stats {
	return Stats{
		Node:           r.up.Node(),
		Session:        r.up.Session(),
		Online:         r.up.Online(),
		Forwarded:      r.forwarded.Value(),
		Shipped:        r.ctr.Sent.Value(),
		Batches:        r.ctr.Batches.Value(),
		Retransmits:    r.ctr.Retransmits.Value(),
		Reconnects:     r.ctr.Reconnects.Value(),
		Dropped:        r.ctr.Dropped.Value(),
		LossMarkers:    r.ctr.LossMarkers.Value(),
		MarkedLost:     r.ctr.MarkedLost.Value(),
		BacklogRecords: r.backlog(),
		QueuedBytes:    r.up.QueuedBytes(),
		CreditWindow:   r.up.CreditWindow(),
		CreditStalls:   r.ctr.CreditStalls.Value(),
		Probes:         r.ctr.Probes.Value(),
		Adjusts:        r.ctr.Adjusts.Value(),
		Correction:     r.clock.Correction(),
		ISM:            r.mgr.Stats(),
	}
}

// Close shuts the relay down tier by tier: the downstream manager first
// (severing leaf sessions and flushing its sorter through the Forward
// tap), then the uplink tail is sealed and pumped, acknowledged batches
// are awaited (bounded), and the parent link closes with a BYE. Records
// the parent never acknowledged are counted as dropped.
func (r *Relay) Close() error {
	// Shutdown arms the uplink's write deadline before the downstream
	// manager closes: the Forward tap can be waiting on the queue lock of
	// a pump blocked in Send, and only the deadline frees it.
	if !r.up.Shutdown() {
		return nil
	}
	// Downstream flush: every record acked to a leaf is now either
	// emitted (and so in the uplink) or represented by a marker.
	err := r.mgr.Close()
	close(r.done)
	r.wgFlush.Wait()
	r.seal()
	if cerr := r.up.Close(); err == nil {
		err = cerr
	}
	return err
}
