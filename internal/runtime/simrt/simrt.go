// Package simrt implements the runtime boundary over the simulation
// kernel: timers go straight to the sim.Scheduler, and packets go
// through the 802.11 MAC onto the shared radio medium.
//
// The adapter is deliberately nothing but indirection — the event
// sequence it produces is bit-identical to the pre-runtime wiring, and
// the golden digests in internal/scenario/testdata pin that.
package simrt

import (
	"fmt"

	"anongossip/internal/mac"
	"anongossip/internal/mobility"
	"anongossip/internal/pkt"
	"anongossip/internal/radio"
	rt "anongossip/internal/runtime"
	"anongossip/internal/sim"
)

// Runtime is one simulated node's kernel surface: the scheduler for
// clock and timers, a MAC entity on the shared medium for frames.
type Runtime struct {
	id    pkt.NodeID
	sched *sim.Scheduler
	dcf   *mac.DCF

	onRecv rt.ReceiveFunc
	onDone rt.SendDoneFunc
}

var _ rt.Runtime = (*Runtime)(nil)

// New attaches a MAC entity for node id to the medium and wraps it,
// together with sched, as a Runtime. The MAC runs the paper's 802.11
// parameters (mac.DefaultConfig) and draws its backoff stream from rng
// by the same "mac/<id>" label the pre-runtime node layer used, so
// existing seeds reproduce identical runs. It fails when the medium
// already has a transceiver for id (radio.ErrDuplicateNode).
func New(sched *sim.Scheduler, rng *sim.RNG, medium *radio.Medium, id pkt.NodeID,
	pos mobility.Model) (*Runtime, error) {
	r := &Runtime{id: id, sched: sched}
	dcf, err := mac.New(sched, rng.Derive(fmt.Sprintf("mac/%d", id)), medium, id, pos, mac.DefaultConfig(), mac.Callbacks{
		OnReceive: func(p *pkt.Packet, from pkt.NodeID, broadcast bool) {
			if r.onRecv != nil {
				r.onRecv(p, from, broadcast)
			}
		},
		OnSendDone: func(p *pkt.Packet, to pkt.NodeID, ok bool) {
			if r.onDone != nil {
				r.onDone(p, to, ok)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	r.dcf = dcf
	return r, nil
}

// ID implements runtime.Runtime.
func (r *Runtime) ID() pkt.NodeID { return r.id }

// Now implements runtime.Clock.
func (r *Runtime) Now() sim.Time { return r.sched.Now() }

// After implements runtime.Clock.
func (r *Runtime) After(d sim.Time, fn func()) sim.Timer { return r.sched.After(d, fn) }

// At implements runtime.Clock.
func (r *Runtime) At(t sim.Time, fn func()) sim.Timer { return r.sched.At(t, fn) }

// Send implements runtime.Runtime: the frame enters the MAC queue.
func (r *Runtime) Send(p *pkt.Packet, linkDst pkt.NodeID) bool {
	return r.dcf.Send(p, linkDst)
}

// Bind implements runtime.Runtime.
func (r *Runtime) Bind(onReceive rt.ReceiveFunc, onSendDone rt.SendDoneFunc) {
	r.onRecv, r.onDone = onReceive, onSendDone
}

// MAC exposes the MAC entity for horizon wiring and statistics.
func (r *Runtime) MAC() *mac.DCF { return r.dcf }
