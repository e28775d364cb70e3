package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"anongossip/internal/pkt"
	"anongossip/internal/runtime/netrt"
	"anongossip/internal/scenario" // registers every protocol stack; names the group
)

// liveBoots is how many clusters a pass boots to time the set-up. A boot
// takes half a millisecond, so it needs more samples than a simulated
// world's construction probe for a steady median.
const liveBoots = 101

// liveChunk is how many packets are published between two timings of the
// host reference.
const liveChunk = 10000

// liveDeadline is how long after the last publish a delivery may still
// arrive before it counts as failed.
const liveDeadline = 5 * time.Second

// liveRun is the measurement state of one pass of the live cluster. The
// publisher goroutine writes pubAt[i] before it publishes packet i; the
// receivers' event loops read it when the packet arrives, ordered by the
// channel operations the frame travels through.
type liveRun struct {
	receivers int
	t0        time.Time
	// Packet i is the publisher's i-th publish on a freshly booted cluster
	// and carries sequence number i+1; the first lp.Warmup packets are
	// published like the rest but not measured.
	pubAt []int64   // host ns since t0
	lat   [][]int64 // [receiver][packet] publish→deliver ns, 0 while missing
	got   []atomic.Int32
	// wake nudges the publisher when a packet has reached every receiver.
	wake chan struct{}
	dups atomic.Int64
}

func newLiveRun(lp *liveParams) *liveRun {
	r := &liveRun{receivers: lp.Nodes - 1, t0: time.Now(), wake: make(chan struct{}, 1)}
	total := lp.Warmup + lp.Packets
	r.pubAt = make([]int64, total)
	r.got = make([]atomic.Int32, total)
	r.lat = make([][]int64, r.receivers)
	for i := range r.lat {
		r.lat[i] = make([]int64, total)
	}
	return r
}

// onDeliver is receiver rcv's delivery callback; it runs on that node's
// event loop.
func (r *liveRun) onDeliver(rcv int, d *pkt.Data) {
	now := int64(time.Since(r.t0))
	i := int64(d.Seq) - 1
	if d.Origin != 1 || i < 0 || i >= int64(len(r.pubAt)) {
		return
	}
	if r.lat[rcv][i] != 0 {
		r.dups.Add(1)
		return
	}
	r.lat[rcv][i] = max(now-r.pubAt[i], 1)
	if int(r.got[i].Add(1)) == r.receivers {
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
}

// awaitPacket blocks until packet i reached every receiver, or the
// deadline passes.
func (r *liveRun) awaitPacket(i int, deadline time.Duration) bool {
	timeout := time.NewTimer(deadline)
	defer timeout.Stop()
	for int(r.got[i].Load()) < r.receivers {
		select {
		case <-r.wake:
		case <-timeout.C:
			return int(r.got[i].Load()) >= r.receivers
		}
	}
	return true
}

func closeNodes(nodes []*netrt.ProtocolNode) {
	for _, n := range nodes {
		_ = n.Close() // the channel transport's Close cannot fail
	}
}

// bootLive starts the cluster and joins every node to the group. It
// returns the nodes and the host time from the first constructor to the
// last Join returning.
func bootLive(lp *liveParams, run *liveRun) ([]*netrt.ProtocolNode, time.Duration, error) {
	t0 := time.Now()
	tr := netrt.NewChanTransport()
	nodes := make([]*netrt.ProtocolNode, 0, lp.Nodes)
	for i := 0; i < lp.Nodes; i++ {
		pn, err := netrt.NewProtocolNode(netrt.ProtocolConfig{
			Node:  netrt.NodeConfig{ID: pkt.NodeID(i + 1), TimeScale: lp.TimeScale},
			Stack: stackLive,
			Seed:  lp.Seed,
		}, tr)
		if err != nil {
			closeNodes(nodes)
			return nil, 0, fmt.Errorf("live node %d: %w", i+1, err)
		}
		if run != nil && i > 0 {
			rcv := i - 1
			pn.OnDeliver(func(_ pkt.GroupID, d *pkt.Data, _ bool) { run.onDeliver(rcv, d) })
		}
		nodes = append(nodes, pn)
	}
	for _, pn := range nodes {
		pn.Start()
	}
	for _, pn := range nodes {
		if err := pn.Join(scenario.Group); err != nil {
			closeNodes(nodes)
			return nil, 0, fmt.Errorf("live join: %w", err)
		}
	}
	return nodes, time.Since(t0), nil
}

// liveTotals sums the link-runtime counters over the cluster.
type liveTotals struct {
	framesIn, framesOut, bytesOut, drops, malformed, sendErrors, filtered uint64
}

// since returns the counts accumulated after the earlier reading.
func (t liveTotals) since(b liveTotals) liveTotals {
	return liveTotals{t.framesIn - b.framesIn, t.framesOut - b.framesOut, t.bytesOut - b.bytesOut, t.drops - b.drops,
		t.malformed - b.malformed, t.sendErrors - b.sendErrors, t.filtered - b.filtered}
}

func liveStats(nodes []*netrt.ProtocolNode) liveTotals {
	var t liveTotals
	for _, n := range nodes {
		s := n.Runtime().Stats()
		t.framesIn += s.FramesIn.Load()
		t.framesOut += s.FramesOut.Load()
		t.bytesOut += s.BytesOut.Load()
		t.drops += s.InboxDrops.Load()
		t.malformed += s.Malformed.Load()
		t.sendErrors += s.SendErrors.Load()
		t.filtered += s.Filtered.Load()
	}
	return t
}

// livePass runs one pass of the live workload: boot, warm up, publish
// closed loop with a bounded window, check every expected delivery.
func livePass(w *workload, tr *tracer, ref *hostRef) (*passResult, error) {
	lp := w.Live
	p := &passResult{Workload: w.Name, Traced: tr != nil, Attempted: w.operations(),
		Metrics: map[string]float64{}, Readings: map[string]float64{}}
	run := newLiveRun(lp)

	// Set-up is cluster boot until every Join returned; the probes boot
	// and discard clusters, the last boot is the one the pass uses.
	setupSpan := -1
	if tr != nil {
		setupSpan = tr.begin(0, "setup")
	}
	var boots []float64
	for i := 0; i < liveBoots-1; i++ {
		nodes, d, err := bootLive(lp, nil)
		if err != nil {
			return nil, err
		}
		closeNodes(nodes)
		boots = append(boots, d.Seconds())
	}
	var h0, h1, m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&h0)
	nodes, d, err := bootLive(lp, run)
	if err != nil {
		return nil, err
	}
	defer closeNodes(nodes)
	boots = append(boots, d.Seconds())
	if tr != nil {
		tr.end(setupSpan)
	}

	// publish sends packets [from, to) closed loop: packet i goes out once
	// packet i-Window has reached every receiver, and the call returns
	// when the last packet has.
	publishErrs := 0
	publish := func(from, to int) {
		for i := from; i < to; i++ {
			if i-lp.Window >= from && !run.awaitPacket(i-lp.Window, liveDeadline) {
				return // a lost packet: the closed loop cannot advance
			}
			run.pubAt[i] = int64(time.Since(run.t0))
			if _, err := nodes[0].Publish(scenario.Group); err != nil {
				publishErrs++
			}
		}
		for i := max(to-lp.Window, from); i < to; i++ {
			if !run.awaitPacket(i, liveDeadline) {
				return
			}
		}
	}
	// The warm-up fills the duplicate caches and the gossip history.
	total := lp.Warmup + lp.Packets
	publish(0, lp.Warmup)
	before := liveStats(nodes)
	runtime.ReadMemStats(&m0)
	// The measured packets go out in chunks; the closed loop drains at the
	// end of each, and the host reference is timed there, inside the same
	// seconds as the work it scales. busy sums the chunks' own durations.
	var busy time.Duration
	measured := func() {
		for c := lp.Warmup; c < total; c += liveChunk {
			t0 := time.Now()
			publish(c, min(c+liveChunk, total))
			busy += time.Since(t0)
			ref.sample(1)
		}
	}
	if tr != nil {
		if err := tr.profiled(0, "run."+lp.Stack+"."+fmt.Sprint(lp.Seed), measured); err != nil {
			return nil, err
		}
	} else {
		measured()
	}
	runtime.ReadMemStats(&m1)
	slow := ref.take()
	link := liveStats(nodes).since(before)
	runtime.GC()
	runtime.ReadMemStats(&h1)

	// Every expected (packet, receiver) delivery is one operation.
	var lats []float64
	missing := 0
	for _, perRcv := range run.lat {
		for _, ns := range perRcv[lp.Warmup:] {
			if ns == 0 {
				missing++
				continue
			}
			lats = append(lats, float64(ns)/1e3)
		}
	}
	if missing > 0 {
		p.fail(missing, "%d of %d deliveries missing %v after the last publish", missing, p.Attempted, liveDeadline)
	}
	if n := int(run.dups.Load()); n > 0 {
		p.fail(n, "%d deliveries arrived twice", n)
	}
	if publishErrs > 0 {
		p.fail(publishErrs, "%d publishes failed", publishErrs)
	}
	if bad := link.drops + link.malformed + link.sendErrors; bad > 0 {
		p.fail(int(bad), "inbox drops %d, malformed %d, send errors %d", link.drops, link.malformed, link.sendErrors)
	}
	if len(lats) == 0 {
		return p, nil
	}

	// Host times are reported in the reference host's seconds, see hostRef.
	wall := busy.Seconds() / slow
	p.WallS = wall
	framesIn := float64(link.framesIn)
	heapPerNode := (float64(h1.HeapAlloc) - float64(h0.HeapAlloc)) / float64(lp.Nodes)

	if tr != nil {
		var replyNew, replyDup, recovered, control, payload uint64
		for _, n := range nodes[1:] {
			rs, err := n.RecoveryStats()
			if err != nil {
				return nil, fmt.Errorf("live recovery stats: %w", err)
			}
			replyNew += rs.ReplyNew
			replyDup += rs.ReplyDup
			recovered += rs.Recovered
		}
		for _, n := range nodes {
			ns, err := n.NodeStats()
			if err != nil {
				return nil, fmt.Errorf("live node stats: %w", err)
			}
			control += ns.ControlBytes
			payload += ns.PayloadBytes
		}

		m := p.Metrics
		m["netrt.frames_in_per_s"] = framesIn / wall
		m["netrt.frames_out_per_s"] = float64(link.framesOut) / wall
		m["netrt.inbox_drops"] = float64(link.drops)
		m["netrt.filtered"] = float64(link.filtered)
		m["netrt.malformed"] = float64(link.malformed)
		m["netrt.send_errors"] = float64(link.sendErrors)
		m["netrt.heap_bytes_per_node"] = heapPerNode
		if replyNew+replyDup > 0 {
			m["gossip.reply_new_share"] = float64(replyNew) / float64(replyNew+replyDup)
		}
		m["gossip.recovered_share"] = float64(recovered) / float64(len(lats))
		m["node.control_bytes"] = float64(control)
		m["node.payload_bytes"] = float64(payload)
		return p, nil
	}

	sort.Float64s(lats)
	// A missing delivery exceeds every latency percentile: it is entered
	// at the deadline it failed to meet.
	for i := 0; i < missing; i++ {
		lats = append(lats, float64(liveDeadline.Microseconds()))
	}
	p.Metrics["wall_s"] = wall
	p.Metrics["events_per_s"] = framesIn / wall
	p.Metrics["mallocs_per_event"] = float64(m1.Mallocs-m0.Mallocs) / framesIn
	p.Metrics["heap_bytes_per_node"] = heapPerNode
	p.Metrics["delivery_ratio"] = 1 + float64(len(lats)-missing)/float64(p.Attempted)
	p.Metrics["gossip_gain"] = 1 // no bare twin runs on the live cluster
	// On a lossless link a gossip reply can carry nothing new, so goodput
	// reads 0 however well the system does; the workload reports the
	// no-reply convention of gossip.Stats.Goodput and leaves the reply
	// counts to gossip.reply_new_share.
	p.Metrics["goodput_pct"] = 100
	p.Metrics["tx_bytes_per_delivery"] = float64(link.bytesOut) / float64(p.Attempted)
	p.Metrics["deliveries_per_s"] = float64(len(lats)-missing) / wall
	p.Metrics["deliver_p50_us"] = quantile(lats, 0.5) / slow
	p.Metrics["deliver_p99_us"] = quantile(lats, 0.99) / slow
	p.Metrics["setup_s"] = summarize(boots).Median
	p.Readings["host_slowdown"] = slow
	p.Readings["wall_raw_s"] = busy.Seconds()
	p.Readings["delivery_ag"] = float64(len(lats)-missing) / float64(p.Attempted)
	p.Readings["latency_samples"] = float64(len(lats) - missing)
	return p, nil
}
