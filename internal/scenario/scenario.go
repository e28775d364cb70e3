// Package scenario assembles complete simulations matching the paper's
// evaluation environment (§5.1): a 200 m × 200 m terrain, random-waypoint
// mobility with pauses uniform in [0, 80 s], IEEE 802.11 at 2 Mbps, one
// multicast group containing a third of the nodes, and a single CBR
// source sending 64-byte packets every 200 ms from t=120 s to t=560 s
// (2201 packets) in a 600 s run.
//
// It also provides seed-parallel sweep helpers used by the figure
// benchmarks and the agbench tool.
package scenario

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"anongossip/internal/geom"
	"anongossip/internal/gossip"
	"anongossip/internal/mac"
	"anongossip/internal/metrics"
	"anongossip/internal/mobility"
	"anongossip/internal/node"
	"anongossip/internal/pkt"
	"anongossip/internal/radio"
	"anongossip/internal/sim"
	"anongossip/internal/stack"
	"anongossip/internal/stats"
	"anongossip/internal/trace"
)

// Group is the single multicast group used by all experiments.
const Group pkt.GroupID = 0xE0000001

// Config describes one simulation run.
type Config struct {
	// Stack composes the protocol stack under test: a routing protocol
	// ("maodv", "odmrp", "flood") plus an optional recovery layer
	// ("gossip").
	Stack stack.Spec
	// Protocol is retired: the enum it held is deleted and Validate
	// rejects a non-zero value. The field survives only until
	// bench/workloads.go stops zeroing it.
	Protocol int

	// Area is the terrain (200 m × 200 m in the paper).
	Area geom.Rect
	// Nodes is the total node count (40 unless swept).
	Nodes int
	// MemberFraction of nodes join the group (1/3 in the paper).
	MemberFraction float64
	// TxRange is the radio transmission range in metres.
	TxRange float64
	// MaxSpeed bounds random-waypoint speeds, drawn from [0, MaxSpeed]
	// m/s.
	MaxSpeed float64
	// MaxPause bounds the waypoint rest period (80 s in the paper).
	MaxPause time.Duration

	// Duration is the simulated time (600 s in the paper).
	Duration time.Duration
	// DataStart/DataEnd bound the CBR transmission window (120/560 s).
	DataStart, DataEnd time.Duration
	// NumSources is the number of sending members (1 in the paper; AG
	// tracks sequence numbers per origin, so more are supported as an
	// extension). Each source sends a full CBR stream, phase-shifted.
	// Validate rejects a count below one.
	NumSources int

	// Seed drives all randomness in the run.
	Seed int64

	// MeasureHeap, when set, records the post-run live heap into
	// Result.HeapLiveBytes (a forced GC plus ReadMemStats, a few ms).
	// The sample is process-wide: run points sequentially (seeds
	// parallel=1, one run at a time) for meaningful per-run numbers.
	// HugeScaleConfig sets it.
	MeasureHeap bool

	// TraceCapacity, when positive, records the last N data and gossip
	// packet events network-wide into Result.Trace.
	TraceCapacity int

	// MetricsWindow, when positive, samples the run's counters at this
	// cadence into Result.Metrics: the kernel runs one window at a time
	// and each window is read between slices, so every other result is
	// bit-identical with sampling on or off.
	MetricsWindow time.Duration

	// Gossip configures the recovery layer, the protocol under study.
	// The substrate beneath it is fixed: the MAC, AODV and the three
	// multicast routings run on their package constants, the paper's
	// parameters.
	Gossip gossip.Config
}

// DefaultConfig returns the paper's baseline configuration (§5.1): 40
// nodes, 75 m range, max speed 0.2 m/s, MAODV+AG.
func DefaultConfig() Config {
	return Config{
		Stack:          stack.Spec{Routing: "maodv", Recovery: "gossip"},
		Area:           geom.Rect{W: 200, H: 200},
		Nodes:          40,
		MemberFraction: 1.0 / 3.0,
		TxRange:        75,
		MaxSpeed:       0.2,
		MaxPause:       80 * time.Second,
		Duration:       600 * time.Second,
		DataStart:      120 * time.Second,
		DataEnd:        560 * time.Second,
		NumSources:     1,
		Seed:           1,
		Gossip:         gossip.DefaultConfig(),
	}
}

// dataInterval is the CBR period of every source (§5.1).
const dataInterval = 200 * time.Millisecond

// ExpectedPackets returns the number of packets each source generates
// (2201 under the paper's parameters).
func (c Config) ExpectedPackets() int {
	if c.DataEnd < c.DataStart {
		return 0
	}
	return int((c.DataEnd-c.DataStart)/dataInterval) + 1
}

// Spec returns the normalized stack spec.
func (c Config) Spec() stack.Spec { return c.Stack.Normalize() }

// maxMetricsWindows bounds the windows of one run: each is a kernel
// slice, a read over every node and a retained metrics.Window, so a
// cadence far below the run length (-metrics-window 1ns) would run for
// hours.
const maxMetricsWindows = 100_000

// Validate reports configuration errors. The error of an unknown stack
// lists every stack name.
func (c Config) Validate() error {
	spec := c.Spec()
	if err := stack.Check(spec); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	// The gossip block is checked only on the stacks that build the
	// layer.
	recovers := spec.Recovery != ""
	// The negated float comparisons also reject NaN (NaN > 0 is false),
	// which a plain `<= 0` would let through.
	switch {
	case c.Protocol != 0:
		return fmt.Errorf("scenario: Protocol is retired (have %d); select the stack with Config.Stack", c.Protocol)
	case c.NumSources < 1:
		return fmt.Errorf("scenario: need at least one source, have %d", c.NumSources)
	case c.Nodes < 2:
		return fmt.Errorf("scenario: need at least 2 nodes, have %d", c.Nodes)
	case !(c.MemberFraction > 0) || c.MemberFraction > 1:
		return fmt.Errorf("scenario: member fraction %v out of (0,1]", c.MemberFraction)
	case !(c.TxRange > 0) || math.IsInf(c.TxRange, 1):
		return fmt.Errorf("scenario: transmission range %v is not positive and finite", c.TxRange)
	case !(c.MaxSpeed >= 0) || math.IsInf(c.MaxSpeed, 1):
		return fmt.Errorf("scenario: max speed %v m/s is not finite and non-negative", c.MaxSpeed)
	case !(c.Area.W > 0) || !(c.Area.H > 0) || math.IsInf(c.Area.W, 1) || math.IsInf(c.Area.H, 1):
		return fmt.Errorf("scenario: degenerate area %+v", c.Area)
	case c.MaxPause < 0:
		// sim.RNG.Duration would silently draw 0 from it.
		return fmt.Errorf("scenario: negative max pause %v", c.MaxPause)
	case c.Duration <= 0:
		return fmt.Errorf("scenario: non-positive duration %v", c.Duration)
	case c.DataEnd > c.Duration:
		return fmt.Errorf("scenario: data window ends at %v after the run ends at %v", c.DataEnd, c.Duration)
	case c.DataStart < 0 || c.DataEnd < 0:
		// DataEnd < DataStart stays legal: it is the empty window of a
		// construction-only run (ExpectedPackets reports 0).
		return fmt.Errorf("scenario: data window [%v, %v] starts or ends before time zero", c.DataStart, c.DataEnd)
	case recovers && c.Gossip.Interval <= 0:
		// A round re-arms itself Interval later: at zero, simulated time
		// would never advance past the first round.
		return fmt.Errorf("scenario: non-positive gossip interval %v", c.Gossip.Interval)
	case recovers && !(c.Gossip.PAnon >= 0 && c.Gossip.PAnon <= 1):
		return fmt.Errorf("scenario: gossip PAnon %v is not in [0,1]", c.Gossip.PAnon)
	case recovers && c.Gossip.HistoryCap < 0:
		// A negative table cap would silently switch recovery off.
		return fmt.Errorf("scenario: negative gossip HistoryCap %d", c.Gossip.HistoryCap)
	case c.MetricsWindow < 0:
		return fmt.Errorf("scenario: negative metrics window %v", c.MetricsWindow)
	case c.MetricsWindow > 0 && c.Duration/c.MetricsWindow > maxMetricsWindows:
		return fmt.Errorf("scenario: metrics window %v splits the %v run into more than %d windows",
			c.MetricsWindow, c.Duration, maxMetricsWindows)
	}
	return nil
}

// MemberResult reports one non-source member's outcome.
type MemberResult struct {
	Node pkt.NodeID
	// Received counts unique data packets obtained (tree + gossip).
	Received int
	// Recovered counts packets obtained through gossip replies.
	Recovered int
	// ReplyNew/ReplyDup are the goodput numerator components (§5.5).
	ReplyNew, ReplyDup uint64
	// Goodput is the per-member goodput percentage.
	Goodput float64
}

// Result is the outcome of one simulation run.
type Result struct {
	// Stack names the protocol stack that ran.
	Stack stack.Spec
	Seed  int64
	// Sent is the number of data packets the source generated.
	Sent int
	// Source is the sending member (excluded from Members).
	Source pkt.NodeID
	// Members holds the per-receiver outcomes.
	Members []MemberResult

	// Received summarises Members[i].Received (the paper's data points
	// and error bars).
	Received stats.Summary

	// TreeLatencyMean and RecoveredLatencyMean average the send-to-
	// delivery delay of packets arriving over the multicast tree and
	// through gossip replies respectively (an extension metric; the
	// paper reports delivery counts only).
	TreeLatencyMean      time.Duration
	RecoveredLatencyMean time.Duration

	// ControlBytes / PayloadBytes split network-layer transmit volume.
	ControlBytes, PayloadBytes uint64
	// MACCollisions counts corrupted receptions medium-wide.
	MACCollisions uint64
	// RouteDiscoveries counts unicast route discoveries started over
	// all nodes (stack.Node.RouteDiscoveries), not the RREQs their rings
	// and floods send: on the +gossip stacks, the searches gossip's
	// unicasts start when no route is known.
	RouteDiscoveries uint64
	// Events is the number of logical simulation events executed:
	// kernel events plus the events the stack elides (see the
	// breakdown below), so the count stays what an elision-free stack
	// would execute for the same configuration and seed.
	Events uint64
	// EventsProcessed, ElidedRadio and ElidedMAC break Events down into
	// executed kernel events and the two elision sources: per-receiver
	// receptions the radio folded into per-frame finishes, and MAC
	// timers folded into the radio's TxDone hook or cancelled instead of
	// firing as no-ops. The four fields sum to Events.
	EventsProcessed uint64
	// ElidedKernel is always 0: the kernel elides nothing. It stays
	// because the bench module's simulated pass (bench/simpass.go) sums
	// it.
	ElidedKernel uint64
	ElidedRadio  uint64
	ElidedMAC    uint64
	// MeanDegree is the average neighbour count at the end of the run.
	MeanDegree float64
	// HeapLiveBytes is the process's live heap after the run with the
	// simulated world still reachable (Config.MeasureHeap only) — the
	// per-node memory-footprint metric of HugeScaleConfig runs.
	HeapLiveBytes uint64
	// Trace holds the packet trace when Config.TraceCapacity > 0.
	Trace *trace.Ring
	// Metrics holds the sampled channel-utilization series when
	// Config.MetricsWindow > 0.
	Metrics *metrics.Series
	// Channel holds the run's per-layer airtime, transmission and byte
	// totals.
	Channel *metrics.ChannelCounters
}

// DeliveryRatio is mean received over packets sent, in [0, 1].
func (r *Result) DeliveryRatio() float64 {
	if r.Sent == 0 {
		return 0
	}
	return r.Received.Mean / float64(r.Sent)
}

// MeanGoodput averages member goodput (only meaningful for stacks with
// a recovery layer; bare-routing members report 100).
func (r *Result) MeanGoodput() float64 {
	if len(r.Members) == 0 {
		return 100
	}
	var sum float64
	for _, m := range r.Members {
		sum += m.Goodput
	}
	return sum / float64(len(r.Members))
}

// Run executes one simulation and collects its results.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w, err := build(cfg)
	if err != nil {
		return nil, err
	}
	series := w.run()
	res := w.collect()
	res.Metrics = series
	if cfg.MeasureHeap {
		runtime.GC() // settle garbage so the sample is live bytes
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.HeapLiveBytes = ms.HeapAlloc
		// The world must stay reachable through the sample or the GC
		// would collect exactly the footprint being measured.
		runtime.KeepAlive(w)
	}
	return res, nil
}

// world is one assembled simulation.
type world struct {
	cfg    Config
	sched  *sim.Scheduler
	medium *radio.Medium

	// macs are the per-node MAC entities, each the runtime of its node;
	// stacks are the network layers assembled over them and nodes the
	// protocol stacks on top.
	macs   []*mac.DCF
	stacks []*node.Stack
	nodes  []*stack.Node

	memberIdx []int // node indices that are members; the first NumSources are senders
	sent      int
	sentAt    map[pkt.SeqKey]sim.Time
	// tracer is the packet trace ring, nil unless Config.TraceCapacity > 0.
	tracer *trace.Ring

	treeLatSum, recLatSum     time.Duration
	treeLatCount, recLatCount uint64
}

// The first source joins first and, finding no tree, becomes the group
// leader (its join retries take ~6 s to conclude). The other members
// join leaderBootstrap into the run, spread over joinWindow, so their
// floods find a tree to answer them instead of racing into simultaneous
// leader elections. The paper's 120 s warm-up comfortably covers this.
const (
	leaderBootstrap = 8 * time.Second
	joinWindow      = 10 * time.Second
)

func build(cfg Config) (*world, error) {
	w := &world{cfg: cfg, sched: sim.NewScheduler()}
	w.medium = radio.NewMedium(w.sched, radio.Params{Range: cfg.TxRange})
	root := sim.NewRNG(cfg.Seed)

	mobCfg := mobility.WaypointConfig{
		Area:     cfg.Area,
		MaxSpeed: cfg.MaxSpeed,
		MaxPause: cfg.MaxPause,
	}

	if cfg.TraceCapacity > 0 {
		w.tracer = trace.NewRing(cfg.TraceCapacity)
	}

	spec, noteLatency := cfg.Spec(), w.noteLatency
	for i := 0; i < cfg.Nodes; i++ {
		id := pkt.NodeID(i + 1)
		mob := mobility.NewWaypoint(mobCfg, root.Derive(fmt.Sprintf("mob/%d", i)))
		macRNG := root.Derive(fmt.Sprintf("stack/%d", i)).Derive(fmt.Sprintf("mac/%d", id))
		dcf, err := mac.New(w.sched, macRNG, w.medium, id, mob, mac.DefaultConfig(), mac.Callbacks{})
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		dcf.SetHorizon(cfg.Duration)
		st := node.NewOnRuntime(dcf)
		if w.tracer != nil {
			st.SetTracer(w.record)
		}
		w.macs = append(w.macs, dcf)
		w.stacks = append(w.stacks, st)

		n, err := stack.Assemble(spec, st, root, i, cfg.Gossip)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		n.OnDeliver(noteLatency)
		n.Start()
		w.nodes = append(w.nodes, n)
	}

	// Membership: a random third of the nodes; the first drawn members
	// are the CBR sources.
	nMembers := int(float64(cfg.Nodes)*cfg.MemberFraction + 0.5)
	if nMembers < 2 {
		nMembers = 2
	}
	nSrc := cfg.NumSources
	if nSrc >= nMembers {
		return nil, fmt.Errorf("scenario: %d sources need more than %d members", nSrc, nMembers)
	}
	perm := root.Derive("membership").Perm(cfg.Nodes)
	w.memberIdx = perm[:nMembers]
	w.sentAt = make(map[pkt.SeqKey]sim.Time, nSrc*cfg.ExpectedPackets())

	// The first source joins first (see leaderBootstrap).
	joinRNG := root.Derive("joins")
	for k, idx := range w.memberIdx {
		var at sim.Time
		if k == 0 {
			at = 50 * time.Millisecond
		} else {
			at = leaderBootstrap + joinRNG.Duration(joinWindow)
		}
		w.sched.At(at, func() { w.nodes[idx].Join(Group) })
	}

	// CBR workload: each source sends exactly ExpectedPackets packets,
	// phase-shifted to avoid synchronised transmissions, as one kernel
	// series.
	for s := 0; s < nSrc; s++ {
		src := w.memberIdx[s]
		offset := time.Duration(s) * dataInterval / time.Duration(nSrc)
		w.sched.Every(cfg.DataStart+offset, dataInterval, cfg.ExpectedPackets(), func() { w.sendData(src) })
	}

	return w, nil
}

// record is every node's tracer: it keeps the events a trace is read
// for, those of data packets and gossip requests and replies.
func (w *world) record(e trace.Event) {
	switch e.Kind {
	case pkt.KindData, pkt.KindGossipReq, pkt.KindGossipRep:
		w.tracer.Record(e)
	}
}

// run advances the kernel to the horizon. With a metrics window it
// runs one window at a time and closes each by reading the counters
// between slices: a read schedules nothing, so the events and their
// order are those of one Run to the horizon.
func (w *world) run() *metrics.Series {
	dur, step := w.cfg.Duration, w.cfg.MetricsWindow
	if step <= 0 {
		w.sched.Run(dur)
		return nil
	}
	series := &metrics.Series{WindowLen: step}
	var last metrics.Counters
	for start, end := time.Duration(0), time.Duration(0); start < dur; start = end {
		end = dur
		if step < dur-start {
			end = start + step
		}
		w.sched.Run(end)
		cur, _ := w.counters()
		depth := 0
		for _, m := range w.macs {
			depth += m.QueueLen()
		}
		series.Windows = append(series.Windows, metrics.Window{Start: start, End: end,
			Counters: cur.Sub(last), InFlight: w.medium.ActiveTx(), QueueDepth: depth})
		last = cur
	}
	return series
}

// counters reads the run's cumulative telemetry counters, and the
// MACs' elided-event total beside them; it mutates nothing.
func (w *world) counters() (c metrics.Counters, macElided uint64) {
	c.Collisions = w.medium.Stats().Collisions
	for _, m := range w.macs {
		st := m.Stats()
		c.Add(st.Channel)
		c.MACRetries += st.Retries
		c.MACBackoff += st.BackoffWait
		macElided += st.ElidedEvents
	}
	// Every MAC transmission but an ACK is a data-frame attempt.
	c.MACTxAttempts = c.TotalTx() - c.TxByLayer[metrics.LayerMAC]
	for _, st := range w.stacks {
		c.Delivered += st.Stats().Delivered
	}
	for _, idx := range w.memberIdx {
		rs := w.nodes[idx].RecoveryStats()
		c.DataDelivered += rs.Delivered
		c.GossipRounds += rs.Rounds
		c.GossipReplies += rs.Replies
	}
	return c, macElided
}

// noteLatency accumulates send-to-delivery delay for one delivered
// packet; it is every node's delivery subscriber.
func (w *world) noteLatency(_ pkt.GroupID, d *pkt.Data, recovered bool) {
	t0, ok := w.sentAt[d.Key()]
	if !ok {
		return
	}
	lat := w.sched.Now() - t0
	if recovered {
		w.recLatSum += lat
		w.recLatCount++
	} else {
		w.treeLatSum += lat
		w.treeLatCount++
	}
}

func (w *world) sendData(idx int) {
	key, err := w.nodes[idx].Publish(Group)
	if err != nil {
		return
	}
	w.sent++
	w.sentAt[key] = w.sched.Now()
}

func (w *world) collect() *Result {
	processed := w.sched.Processed()
	c, macElided := w.counters()
	// Logical events: the radio folds per-receiver finish events into
	// per-frame ones, and the MAC folds its airtime-end timers into the
	// radio's TxDone hook and cancels contention timers whose frame
	// completed early instead of letting them fire as no-ops; adding
	// every elided count keeps the metric — and the golden digests
	// pinned on it — independent of which elisions are in force.
	radioElided := w.medium.ElidedEvents()
	events := processed + radioElided + macElided
	res := &Result{
		Stack:           w.cfg.Spec(),
		Seed:            w.cfg.Seed,
		Sent:            w.sent,
		Source:          pkt.NodeID(w.memberIdx[0] + 1),
		Events:          events,
		EventsProcessed: processed,
		ElidedRadio:     radioElided,
		ElidedMAC:       macElided,
		MeanDegree:      w.medium.MeanDegree(),
		MACCollisions:   c.Collisions,
		Trace:           w.tracer,
		Channel:         &c.ChannelCounters,
	}

	if w.treeLatCount > 0 {
		res.TreeLatencyMean = w.treeLatSum / time.Duration(w.treeLatCount)
	}
	if w.recLatCount > 0 {
		res.RecoveredLatencyMean = w.recLatSum / time.Duration(w.recLatCount)
	}

	// Sources trivially have their own packets.
	receivers := w.memberIdx[w.cfg.NumSources:]
	received := make([]int, 0, len(receivers))
	for _, idx := range receivers {
		rs := w.nodes[idx].RecoveryStats()
		res.Members = append(res.Members, MemberResult{
			Node:      pkt.NodeID(idx + 1),
			Received:  int(rs.Delivered),
			Recovered: int(rs.Recovered),
			ReplyNew:  rs.ReplyNew,
			ReplyDup:  rs.ReplyDup,
			Goodput:   rs.Goodput,
		})
		received = append(received, int(rs.Delivered))
	}
	res.Received = stats.SummarizeInts(received)

	for _, st := range w.stacks {
		s := st.Stats()
		res.ControlBytes += s.ControlBytes
		res.PayloadBytes += s.PayloadBytes
	}
	for _, n := range w.nodes {
		res.RouteDiscoveries += n.RouteDiscoveries()
	}
	return res
}
