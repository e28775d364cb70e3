package main

import (
	"fmt"
	"time"

	"anongossip/internal/aodv"
	"anongossip/internal/flood"
	"anongossip/internal/geom"
	"anongossip/internal/gossip"
	"anongossip/internal/mac"
	"anongossip/internal/maodv"
	"anongossip/internal/mobility"
	"anongossip/internal/node"
	"anongossip/internal/pkt"
	"anongossip/internal/radio"
	rt "anongossip/internal/runtime"
	"anongossip/internal/runtime/netrt"
	"anongossip/internal/scenario"
	"anongossip/internal/sim"
)

// This file holds the driven spans of the traced pass: the harness calls
// each layer's public API directly, at the sizes the workload puts the
// layer under, and records one span per batch. A drive measures the layer
// in isolation — what an operation costs when nothing else competes for
// the cache — so it bounds from below what the same operation costs
// inside a run; the profile attribution gives the in-run total.

// stubRuntime is the harness-owned runtime.Runtime the protocol engines
// are driven through: a real scheduler for clock and timers, a Send that
// counts the frame and drops it, and a Bind that captures the network
// layer's receive callback so the drive can inject packets. A span over
// an engine on this runtime covers node.Stack and the engine and nothing
// below them.
type stubRuntime struct {
	*sim.Scheduler
	id   pkt.NodeID
	sent int
	recv rt.ReceiveFunc
}

var _ rt.Runtime = (*stubRuntime)(nil)

func newStubRuntime(id pkt.NodeID) *stubRuntime {
	return &stubRuntime{Scheduler: sim.NewScheduler(), id: id}
}

func (s *stubRuntime) ID() pkt.NodeID { return s.id }

func (s *stubRuntime) Send(*pkt.Packet, pkt.NodeID) bool {
	s.sent++
	return true
}

func (s *stubRuntime) Bind(onReceive rt.ReceiveFunc, _ rt.SendDoneFunc) { s.recv = onReceive }

// flush runs the timers due within d (forwarding jitter, rounds).
func (s *stubRuntime) flush(d time.Duration) { s.Run(s.Now() + d) }

// stubTree is a fixed walk substrate for the gossip engine.
type stubTree struct{ hops []gossip.NextHop }

func (t stubTree) NextHops(pkt.GroupID) []gossip.NextHop { return t.hops }
func (t stubTree) IsMember(pkt.GroupID) bool             { return true }

const driveBatches = 5

// driver runs the drives of one workload.
type driver struct {
	tr    *tracer
	dp    driveParams
	rng   *sim.RNG
	scale int // divides every batch size; >1 in quick mode
	out   map[string]float64
}

// measure runs driveBatches batches of ops operations each through fn and
// stores the median nanoseconds per operation as "<layer>.<op>_ns". It
// returns the median allocations per operation.
func (d *driver) measure(layer, op string, ops int, fn func(n int)) float64 {
	ops = max(ops/d.scale, 16)
	var ns, allocs []float64
	for b := 0; b < driveBatches; b++ {
		n, a := d.tr.batch(0, "drive."+layer+"."+op, ops, func() { fn(ops) })
		ns = append(ns, n)
		allocs = append(allocs, a)
	}
	d.out[layer+"."+op+"_ns"] = summarize(ns).Median
	return summarize(allocs).Median
}

// self and neighbour ids of the driven node.
const driveSelf pkt.NodeID = 1

func (d *driver) neighbour(k int) pkt.NodeID { return pkt.NodeID(2 + k%d.dp.Degree) }

// runDrives executes every drive, filling out with the per-layer metrics.
func runDrives(tr *tracer, w *workload, seed int64, quick bool, out map[string]float64) error {
	d := &driver{tr: tr, dp: w.driveParams(), rng: sim.NewRNG(seed).Derive("drive"), scale: 1, out: out}
	if quick {
		d.scale = 20
	}
	for _, step := range []func() error{
		d.driveSim, d.driveGeom, d.driveMobility, d.driveRadio, d.driveMAC,
		d.driveAODV, d.driveMAODV, d.driveFlood, d.driveGossip, d.drivePkt, d.driveNetrt,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	if len(w.Runs) > 0 {
		var builds []float64
		for i := 0; i < 3; i++ {
			var err error
			ns, _ := tr.batch(0, "drive.scenario.build", 1, func() { _, err = scenario.Run(probeConfig(w.Runs[0])) })
			if err != nil {
				return fmt.Errorf("drive scenario.build: %w", err)
			}
			builds = append(builds, ns/1e9)
		}
		out["scenario.build_s"] = summarize(builds).Median
	}
	return nil
}

// driveSim is the classic hold model: the queue stays at the workload's
// pending depth while every fired event schedules its successor.
func (d *driver) driveSim() error {
	s := sim.NewScheduler()
	delays := make([]time.Duration, 4096)
	for i := range delays {
		delays[i] = d.rng.Duration(time.Second) + 1
	}
	k := 0
	var hold func()
	hold = func() {
		k++
		s.After(delays[k&4095], hold)
	}
	for i := 0; i < d.dp.Pending; i++ {
		s.After(delays[i&4095], hold)
	}
	s.RunAll(uint64(d.dp.Pending)) // reach the steady-state mix of timestamps
	d.measure("sim", "hold", 200000, func(n int) { s.RunAll(uint64(n)) })
	return nil
}

func (d *driver) randomPoint() geom.Point {
	return geom.Point{X: d.rng.Uniform(0, d.dp.Area.W), Y: d.rng.Uniform(0, d.dp.Area.H)}
}

func (d *driver) driveGeom() error {
	g := geom.NewGrid(d.dp.Range)
	pts := make([]geom.Point, d.dp.Nodes)
	for i := range pts {
		pts[i] = d.randomPoint()
		g.Insert(i, pts[i])
	}
	found, k := 0, 0
	d.measure("geom", "grid_query", 20000, func(n int) {
		for i := 0; i < n; i++ {
			g.ForEachInRange(pts[k%len(pts)], d.dp.Range, func(int, geom.Point) { found++ })
			k++
		}
	})
	// A node drifts a fraction of a metre between refreshes: most moves
	// stay inside their cell, a few cross a boundary.
	d.measure("geom", "grid_move", 100000, func(n int) {
		for i := 0; i < n; i++ {
			id := k % len(pts)
			k++
			pts[id] = d.dp.Area.Clamp(geom.Point{X: pts[id].X + 0.7, Y: pts[id].Y - 0.4})
			g.Move(id, pts[id])
		}
	})
	if found == 0 {
		return fmt.Errorf("drive geom: range queries found nothing")
	}
	return nil
}

func (d *driver) waypoints(n int) []*mobility.Waypoint {
	cfg := mobility.WaypointConfig{Area: d.dp.Area, MaxSpeed: d.dp.Speed, MaxPause: d.dp.Pause}
	out := make([]*mobility.Waypoint, n)
	for i := range out {
		out[i] = mobility.NewWaypoint(cfg, d.rng.Derive(fmt.Sprintf("mob/%d", i)))
	}
	return out
}

func (d *driver) driveMobility() error {
	models := d.waypoints(d.dp.Nodes)
	var t sim.Time
	var sink float64
	d.measure("mobility", "position", 200000, func(n int) {
		for i := 0; i < n; i++ {
			t += 50 * time.Microsecond
			sink += models[i%len(models)].Position(t).X
		}
	})
	_ = sink
	return nil
}

func (d *driver) driveRadio() error {
	s := sim.NewScheduler()
	m := radio.NewMedium(s, radio.Params{Range: d.dp.Range})
	models := d.waypoints(d.dp.Nodes)
	trs := make([]*radio.Transceiver, len(models))
	for i, mob := range models {
		t, err := m.Attach(pkt.NodeID(i+1), mob, func(any, pkt.NodeID, bool) {})
		if err != nil {
			return fmt.Errorf("drive radio: %w", err)
		}
		trs[i] = t
	}
	const airtime = 500 * time.Microsecond
	k := 0
	var txErr error
	before := m.Stats()
	// One operation is a transmission from start to finish: the receiver
	// table is built at StartTx and walked when the airtime ends.
	d.measure("radio", "starttx", 5000, func(n int) {
		for i := 0; i < n; i++ {
			if err := trs[(k*7919)%len(trs)].StartTx(k, airtime); err != nil && txErr == nil {
				txErr = err
			}
			k++
			s.Run(s.Now() + airtime)
		}
	})
	if txErr != nil {
		return fmt.Errorf("drive radio: %w", txErr)
	}
	after := m.Stats()
	d.out["radio.rx_per_tx"] = float64(after.Deliveries+after.Collisions-before.Deliveries-before.Collisions) /
		float64(after.Transmissions-before.Transmissions)
	var busy sim.Time
	d.measure("radio", "carrier_probe", 20000, func(n int) {
		for i := 0; i < n; i++ {
			b, _ := trs[(k*7919)%len(trs)].CarrierProbe()
			busy += b
			k++
		}
	})
	return nil
}

// driveMAC times one DCF cycle on an idle channel, Send to completion,
// with the workload's degree of neighbours overhearing.
func (d *driver) driveMAC() error {
	s := sim.NewScheduler()
	m := radio.NewMedium(s, radio.Params{Range: d.dp.Range})
	done := 0
	var first *mac.DCF
	for i := 0; i <= d.dp.Degree; i++ {
		cb := mac.Callbacks{OnReceive: func(*pkt.Packet, pkt.NodeID, bool) {}}
		if i == 0 {
			cb.OnSendDone = func(*pkt.Packet, pkt.NodeID, bool) { done++ }
		}
		pos := mobility.Static{P: geom.Point{X: float64(i % 7), Y: float64(i / 7)}}
		dcf, err := mac.New(s, d.rng.Derive(fmt.Sprintf("mac/%d", i)), m, pkt.NodeID(i+1), pos, mac.DefaultConfig(), cb)
		if err != nil {
			return fmt.Errorf("drive mac: %w", err)
		}
		if i == 0 {
			first = dcf
		}
	}
	data := pkt.NewPacket(1, pkt.Broadcast, &pkt.Data{Group: scenario.Group, Origin: 1, Seq: 1, PayloadLen: 64})
	// 3 ms covers DIFS, the longest first backoff, the frame and its ACK.
	const cycle = 3 * time.Millisecond
	sent := 0
	for _, c := range []struct {
		op  string
		dst pkt.NodeID
	}{{"broadcast_cycle", pkt.Broadcast}, {"unicast_cycle", 2}} {
		d.measure("mac", c.op, 2000, func(n int) {
			for i := 0; i < n; i++ {
				first.Send(data, c.dst)
				sent++
				s.Run(s.Now() + cycle)
			}
		})
	}
	if done != sent {
		return fmt.Errorf("drive mac: %d of %d cycles completed", done, sent)
	}
	return nil
}

// engineNode is a network layer on a stub runtime with an AODV router.
func (d *driver) engineNode(label string) (*stubRuntime, *node.Stack, *aodv.Router) {
	srt := newStubRuntime(driveSelf)
	st := node.NewOnRuntime(srt)
	return srt, st, aodv.New(st, d.rng.Derive(label+"/aodv"), aodv.DefaultConfig())
}

// hellos injects one beacon from every neighbour, which keeps the
// neighbour table and the one-hop routes alive.
func (d *driver) hellos(srt *stubRuntime, seq uint32) {
	for k := 0; k < d.dp.Degree; k++ {
		nb := d.neighbour(k)
		srt.recv(pkt.NewPacket(nb, pkt.Broadcast, &pkt.Hello{Seq: seq}), nb, true)
	}
}

func (d *driver) driveAODV() error {
	srt, _, router := d.engineNode("aodv")
	router.Start()
	var seq uint32
	k := 0
	d.measure("aodv", "hello_rx", 50000, func(n int) {
		for i := 0; i < n; i++ {
			nb := d.neighbour(k)
			k++
			seq++
			srt.recv(pkt.NewPacket(nb, pkt.Broadcast, &pkt.Hello{Seq: seq}), nb, true)
		}
	})
	// Route requests for an unknown destination from every origin in the
	// network: reverse route, duplicate cache, jittered rebroadcast.
	var id uint32
	d.measure("aodv", "rreq_rx", 20000, func(n int) {
		for i := 0; i < n; i++ {
			id++
			orig := pkt.NodeID(2 + int(id)%d.dp.Nodes)
			nb := d.neighbour(int(id))
			req := &pkt.RREQ{ID: id, Dst: 0xFFFF0000, Orig: orig, OrigSeq: id, HopCount: 2, Flags: pkt.RREQUnknownSeq}
			srt.recv(pkt.NewPacket(orig, pkt.Broadcast, req), nb, true)
		}
		srt.flush(aodv.DefaultConfig().BroadcastJitter)
	})
	if srt.sent == 0 {
		return fmt.Errorf("drive aodv: no request was rebroadcast")
	}
	d.hellos(srt, seq+1)
	hits := 0
	d.measure("aodv", "nexthop", 200000, func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := router.NextHop(d.neighbour(k)); ok {
				hits++
			}
			k++
		}
	})
	if hits == 0 {
		return fmt.Errorf("drive aodv: no next hop resolved")
	}
	return nil
}

// driveMAODV forwards tree data at an interior member: the node elects
// itself leader, three neighbours graft branches onto it, and data from
// one of them is delivered and re-broadcast down the others.
func (d *driver) driveMAODV() error {
	srt, st, uni := d.engineNode("maodv")
	cfg := maodv.DefaultConfig()
	router := maodv.New(st, uni, d.rng.Derive("maodv"), cfg)
	uni.Start()
	router.Join(scenario.Group)
	srt.flush(10 * time.Second) // join floods go unanswered: leader of its own tree
	if !router.InTree(scenario.Group) {
		return fmt.Errorf("drive maodv: node did not become its tree's leader")
	}
	branches := min(3, d.dp.Degree)
	d.hellos(srt, 1)
	for k := 0; k < branches; k++ {
		nb := d.neighbour(k)
		srt.recv(pkt.NewPacket(nb, driveSelf, &pkt.MACT{Group: scenario.Group, Src: nb, Flags: pkt.MACTJoin}), nb, false)
	}
	delivered := 0
	router.OnDeliver(func(pkt.GroupID, *pkt.Data, pkt.NodeID) { delivered++ })
	var seq, hello uint32 = 0, 1
	from := d.neighbour(0)
	d.measure("maodv", "data_fwd", 20000, func(n int) {
		hello++
		d.hellos(srt, hello)
		for i := 0; i < n; i++ {
			seq++
			data := &pkt.Data{Group: scenario.Group, Origin: from, Seq: seq, PayloadLen: cfg.PayloadLen}
			srt.recv(pkt.NewPacket(from, pkt.Broadcast, data), from, true)
		}
		srt.flush(cfg.ForwardJitter)
	})
	if delivered != int(seq) {
		return fmt.Errorf("drive maodv: %d of %d packets delivered", delivered, seq)
	}
	return nil
}

func (d *driver) driveFlood() error {
	srt := newStubRuntime(driveSelf)
	cfg := flood.DefaultConfig()
	router := flood.New(node.NewOnRuntime(srt), d.rng.Derive("flood"), cfg)
	router.Join(scenario.Group)
	var seq uint32
	from := d.neighbour(0)
	d.measure("flood", "data_rx", 20000, func(n int) {
		for i := 0; i < n; i++ {
			seq++
			data := &pkt.Data{Group: scenario.Group, Origin: from, Seq: seq, PayloadLen: cfg.PayloadLen}
			srt.recv(pkt.NewPacket(from, pkt.Broadcast, data), from, true)
		}
		srt.flush(cfg.RebroadcastJitter)
	})
	if got := router.Stats().DataDelivered; got != uint64(seq) {
		return fmt.Errorf("drive flood: %d of %d packets delivered", got, seq)
	}
	return nil
}

func (d *driver) driveGossip() error {
	srt, st, _ := d.engineNode("gossip")
	tree := stubTree{}
	for k := 0; k < min(4, d.dp.Degree); k++ {
		tree.hops = append(tree.hops, gossip.NextHop{ID: d.neighbour(k), Nearest: uint8(1 + k)})
	}
	cfg := gossip.DefaultConfig()
	eng := gossip.New(st, tree, d.rng.Derive("gossip"), cfg)
	eng.Attach(scenario.Group)
	d.hellos(srt, 1) // unicast replies need one-hop routes
	origin := d.neighbour(0)
	var seq uint32
	// Every tenth packet is skipped, so the lost table and with it the
	// round's request stay populated.
	d.measure("gossip", "tree_data", 50000, func(n int) {
		for i := 0; i < n; i++ {
			seq++
			if seq%10 == 0 {
				seq++
			}
			eng.OnTreeData(scenario.Group, &pkt.Data{Group: scenario.Group, Origin: origin, Seq: seq, PayloadLen: 64}, origin)
		}
	})
	sentBefore := srt.sent
	d.measure("gossip", "round", 2000, func(n int) {
		for i := 0; i < n; i++ {
			srt.flush(cfg.Interval)
		}
	})
	if srt.sent == sentBefore {
		return fmt.Errorf("drive gossip: rounds sent no request")
	}
	// Walk requests asking for packets the history holds: half are
	// accepted and answered, half propagated along the tree.
	d.hellos(srt, 2)
	d.measure("gossip", "request_rx", 10000, func(n int) {
		for i := 0; i < n; i++ {
			initiator := d.neighbour(i)
			req := &pkt.GossipReq{Group: scenario.Group, Initiator: initiator, HopsTraveled: 1,
				Expected: []pkt.Expect{{Origin: origin, NextSeq: seq - 5}}}
			for l := uint32(0); l < 5; l++ {
				req.Lost = append(req.Lost, pkt.SeqKey{Origin: origin, Seq: seq - 11 - 2*l})
			}
			srt.recv(pkt.NewPacket(initiator, driveSelf, req), initiator, false)
		}
	})
	if eng.Stats().RepliesSent == 0 {
		return fmt.Errorf("drive gossip: no request was answered")
	}
	return nil
}

func (d *driver) drivePkt() error {
	frame := &pkt.Frame{From: 1, LinkDst: pkt.Broadcast,
		Packet: pkt.NewPacket(1, pkt.Broadcast, &pkt.Data{Group: scenario.Group, Origin: 1, Seq: 7, PayloadLen: 64})}
	var wire []byte
	d.measure("pkt", "encode", 200000, func(n int) {
		for i := 0; i < n; i++ {
			wire = pkt.EncodeFrame(frame)
		}
	})
	var decodeErr error
	d.out["pkt.decode_allocs"] = d.measure("pkt", "decode", 200000, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := pkt.DecodeFrame(wire); err != nil {
				decodeErr = err
			}
		}
	})
	if decodeErr != nil {
		return fmt.Errorf("drive pkt: %w", decodeErr)
	}
	return nil
}

// driveNetrt times the live runtime alone: a closure round trip through
// the event loop, and the loop's frame rate with a no-op network layer.
func (d *driver) driveNetrt() error {
	tr := netrt.NewChanTransport()
	n, err := netrt.NewNode(netrt.NodeConfig{ID: 1, TimeScale: 100}, tr)
	if err != nil {
		return fmt.Errorf("drive netrt: %w", err)
	}
	defer n.Close()
	n.Bind(func(*pkt.Packet, pkt.NodeID, bool) {}, nil)
	n.Start()
	var doErr error
	d.measure("netrt", "do_rtt", 5000, func(ops int) {
		for i := 0; i < ops; i++ {
			if err := n.Do(func() {}); err != nil {
				doErr = err
			}
		}
	})
	if doErr != nil {
		return fmt.Errorf("drive netrt: %w", doErr)
	}
	d.out["netrt.do_rtt_us"] = d.out["netrt.do_rtt_ns"] / 1e3
	delete(d.out, "netrt.do_rtt_ns")

	sender, err := tr.Join(2, func([]byte) {})
	if err != nil {
		return fmt.Errorf("drive netrt: %w", err)
	}
	defer sender.Close()
	wire := pkt.EncodeFrame(&pkt.Frame{From: 2, LinkDst: 1,
		Packet: pkt.NewPacket(2, 1, &pkt.Data{Group: scenario.Group, Origin: 2, Seq: 1, PayloadLen: 64})})
	// The sender stays half an inbox ahead of the loop, so the loop never
	// idles and nothing is dropped.
	ahead := uint64(n.InboxCap() / 2)
	stats := n.Stats()
	d.measure("netrt", "loop_frames", 100000, func(ops int) {
		start := stats.FramesIn.Load()
		for sent := uint64(0); sent < uint64(ops); {
			if sent-(stats.FramesIn.Load()-start) < ahead {
				if err := sender.Send(wire, 1); err != nil {
					doErr = err
				}
				sent++
			}
		}
		for stats.FramesIn.Load()-start < uint64(ops) && stats.InboxDrops.Load() == 0 {
			time.Sleep(20 * time.Microsecond)
		}
	})
	if doErr != nil || stats.InboxDrops.Load() > 0 {
		return fmt.Errorf("drive netrt: send error %v, %d inbox drops", doErr, stats.InboxDrops.Load())
	}
	d.out["netrt.loop_frames_per_s"] = 1e9 / d.out["netrt.loop_frames_ns"]
	delete(d.out, "netrt.loop_frames_ns")
	return nil
}
