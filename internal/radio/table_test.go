package radio

import (
	"fmt"
	"math"
	"testing"
	"time"

	"anongossip/internal/geom"
	"anongossip/internal/mobility"
	"anongossip/internal/pkt"
	"anongossip/internal/sim"
)

// linear is a scripted model: it leaves p0 at time 0 and moves with
// velocity v for ever, at exactly the speed it declares.
type linear struct{ p0, v geom.Point }

func (l linear) Position(t sim.Time) geom.Point {
	s := t.Seconds()
	return geom.Point{X: l.p0.X + l.v.X*s, Y: l.p0.Y + l.v.Y*s}
}

func (l linear) MaxSpeed() float64 { return math.Hypot(l.v.X, l.v.Y) }

// tableLife returns the last instant after its build at which tr's
// neighbour table still stands, by the rule startTxBatch applies.
func tableLife(m *Medium, tr *Transceiver) sim.Time {
	valid := func(dt sim.Time) bool { return (tr.maxSpeed+m.maxSpeed)*dt.Seconds() <= m.skin }
	life := sim.Time(m.skin / (tr.maxSpeed + m.maxSpeed) * float64(time.Second))
	for valid(life + 1) {
		life++
	}
	for !valid(life) {
		life--
	}
	return life
}

// TestNeighbourTableBoundaries drives the table's class thresholds and
// its expiry at their edges. A transmitter at the origin (static, then
// moving) has partners on both sides that all move against its
// direction at exactly their declared speed — one closing, one opening
// at the full v_i + v_max the validity rule budgets for — and start at
// every threshold of the classification ± 1 µm and ± 10 µm (the
// conservative margin lies in between). The table is built by a
// transmission at t = 0; a second one follows at expiry − 1 ns, at
// expiry, or one nanosecond after it. Receptions and onset flags must
// equal the per-receiver exact walk's under both indexes.
func TestNeighbourTableBoundaries(t *testing.T) {
	const rng, v = 75.0, 5.0
	for _, txSpeed := range []float64{0, v} {
		// Probe world: the medium's derived constants and the lifetime.
		probe := newTestMedium(sim.NewScheduler(), rng, oracle{})
		ptr := attach(t, probe.Medium, 1, linear{v: geom.Point{X: txSpeed}}, nil)
		attach(t, probe.Medium, 2, linear{v: geom.Point{X: -v}}, nil)
		life := tableLife(probe.Medium, ptr)
		if want := sim.Time(probe.skin / (txSpeed + v) * float64(time.Second)); life != want {
			t.Fatalf("tx speed %v: table lives %v, want skin/(v_i+v_max) = %v", txSpeed, life, want)
		}
		eps := v * CarrierPredictWindow.Seconds()
		var d0s []float64
		for _, base := range []float64{rng - eps - probe.skin, rng - probe.skin, rng, rng + eps + probe.skin} {
			for _, off := range []float64{-10e-6, -1e-6, 0, 1e-6, 10e-6} {
				d0s = append(d0s, base+off)
			}
		}

		for _, second := range []sim.Time{0, life - 1, life, life + 1} {
			var ref *fuzzWorld
			for _, o := range oracles {
				w := &fuzzWorld{sched: sim.NewScheduler()}
				w.m = newTestMedium(w.sched, rng, o)
				add := func(mob mobility.Model) *Transceiver {
					i := len(w.trs)
					tr := attach(t, w.m.Medium, pkt.NodeID(i+1), mob, func(frame any, from pkt.NodeID, ok bool) {
						w.log = append(w.log, fmt.Sprintf("rx@%v node=%d frame=%v ok=%v", w.sched.Now(), i, frame, ok))
					})
					tr.SetCarrierListener(onsetLog{w, i})
					w.trs = append(w.trs, tr)
					return tr
				}
				tx := add(linear{v: geom.Point{X: txSpeed}})
				for _, d0 := range d0s {
					add(linear{p0: geom.Point{X: d0}, v: geom.Point{X: -v}})  // closing
					add(linear{p0: geom.Point{X: -d0}, v: geom.Point{X: -v}}) // opening
				}
				send := func(frame string) {
					if err := w.m.startTx(tx, frame, time.Microsecond, pkt.Broadcast, nil); err != nil {
						t.Fatal(err)
					}
				}
				w.sched.At(0, func() { send("build") })
				if second > 0 {
					w.sched.At(second, func() { send("second") })
				}
				w.sched.Run(time.Second)

				label := fmt.Sprintf("tx speed %v, second frame at %v", txSpeed, second)
				if o == (oracle{}) {
					// The production walk must have reused the table up
					// to its expiry and rebuilt it right after.
					want := sim.Time(0)
					if second > life {
						want = second
					}
					if tx.nbrAt != want {
						t.Fatalf("%s: table built at %v, want %v", label, tx.nbrAt, want)
					}
					var certain int
					for _, e := range tx.nbrs {
						if e.certain {
							certain++
						}
					}
					if certain == 0 || certain == len(tx.nbrs) || len(tx.nbrs) == len(w.trs)-1 {
						t.Fatalf("%s: %d of %d partners in the table, %d certain: the scripted distances must span all three classes",
							label, len(tx.nbrs), len(w.trs)-1, certain)
					}
					ref = w
					continue
				}
				compareFuzzWorlds(t, label, ref, w, "batch/grid", o.String())
			}
		}
	}
}

// declared is a node that stays put yet declares a speed bound.
type declared struct {
	mobility.Static
	speed float64
}

func (d declared) MaxSpeed() float64 { return d.speed }

// onsetFlags records the proven flag of every onset it is notified of.
type onsetFlags []bool

func (f *onsetFlags) CarrierOnset(_ sim.Time, proven bool) { *f = append(*f, proven) }

// TestNeighbourTableInvalidation: the two events that can make a node
// matter to a transmitter whose standing table has no row for it — an
// Attach, and a carrier listener whose motion inflation widens the
// medium's onset band — outdate every table, so the very next
// transmission is heard by / notified to the newcomer.
func TestNeighbourTableInvalidation(t *testing.T) {
	sched := sim.NewScheduler()
	m := NewMedium(sched, Params{Range: 75})
	tx := attach(t, m, 1, mobility.Static{}, nil)
	attach(t, m, 2, mobility.Static{P: geom.Point{X: 10}}, nil)
	// 170 m out, but declared so fast that its onset band (100 m) reaches
	// in to the transmitter's range. While it does not listen, nothing
	// looks that far: the grid does not even offer it as a candidate.
	far := attach(t, m, 3, declared{mobility.Static{P: geom.Point{X: 170}}, 4000}, nil)
	send := func() {
		t.Helper()
		if err := tx.StartTx(nil, 10*time.Microsecond); err != nil {
			t.Fatal(err)
		}
		// 20 µs a frame: all three fit in the table's 586 µs lifetime.
		sched.Run(sched.Now() + 20*time.Microsecond)
	}
	send()
	if len(tx.nbrs) != 1 || tx.nbrs[0].rcv != 1 {
		t.Fatalf("table %+v, want node 2 alone", tx.nbrs)
	}

	var heard int
	attach(t, m, 4, mobility.Static{P: geom.Point{X: -10}}, func(any, pkt.NodeID, bool) { heard++ })
	send()
	if heard != 1 {
		t.Fatalf("a node attached after the table was built heard %d of 1 frames", heard)
	}

	var onsets onsetFlags
	far.SetCarrierListener(&onsets)
	send()
	if len(onsets) != 1 || onsets[0] {
		t.Fatalf("a listener whose band reaches the transmitter got onsets %v (proven flags), want one unproven", onsets)
	}
	if sched.Now() > tableLife(m, tx) {
		t.Fatalf("the three frames took %v, past the table's lifetime %v: expiry, not invalidation, rebuilt it", sched.Now(), tableLife(m, tx))
	}
}

// countingModel counts the Position evaluations of a waypoint model and
// keeps its speed bound.
type countingModel struct {
	w *mobility.Waypoint
	n *int
}

func (c countingModel) Position(t sim.Time) geom.Point { *c.n++; return c.w.Position(t) }
func (c countingModel) MaxSpeed() float64              { return c.w.MaxSpeed() }

// TestStartTxPositionEvaluations states the neighbour tables' saving as
// a count. The paper's field (40 waypoint nodes on 200 × 200 m, 75 m
// range, every node with a carrier listener), 2,000 transmissions over
// 200 s from five of the nodes in turn — a node that transmits at all
// transmits often: the paper baseline puts nine frames a second on the
// air per node. The exact walk evaluated every grid candidate's
// position for every frame: 34.23 per StartTx at 0.2 m/s, 36.40 at
// 10 m/s (the parent commit's readings of this very loop; grid
// refreshes included). With tables, at the paper's 0.2 m/s a table
// serves 5.9 s of frames and only the uncertain band is read in
// between. At 10 m/s a table expires (117 ms) before its owner speaks
// again, so these isolated frames are the tables' worst case: each
// rebuilds, and pays on top of the exact walk a second read per
// uncertain entry (1.6 a frame) and a query skin wider, which the grid
// rounds up to whole cells (2.0 a frame).
func TestStartTxPositionEvaluations(t *testing.T) {
	const (
		nodes, senders, frames = 40, 5, 2000
		exactAt10              = 36.40
	)
	for _, tc := range []struct{ speed, budget float64 }{{0.2, 8}, {10, exactAt10 + 4}} {
		sched := sim.NewScheduler()
		m := NewMedium(sched, Params{Range: 75})
		root := sim.NewRNG(7)
		var evals int
		trs := make([]*Transceiver, nodes)
		for i := range trs {
			w := mobility.NewWaypoint(mobility.WaypointConfig{
				Area: geom.Rect{W: 200, H: 200}, MaxSpeed: tc.speed, MaxPause: 80 * time.Second,
			}, root.Derive(fmt.Sprintf("mob/%d", i)))
			trs[i] = attach(t, m, pkt.NodeID(i+1), countingModel{w, &evals}, nil)
			trs[i].SetCarrierListener(&nopListener{})
		}
		evals = 0
		for i := 0; i < frames; i++ {
			tr := trs[i%senders]
			sched.At(sim.Time(i)*100*time.Millisecond, func() {
				if err := tr.StartTx(nil, time.Millisecond); err != nil {
					t.Error(err)
				}
			})
		}
		sched.Run(frames * 100 * time.Millisecond)
		mean := float64(evals) / frames
		t.Logf("%v m/s: %.2f Position evaluations per StartTx (budget %.2f)", tc.speed, mean, tc.budget)
		if mean > tc.budget {
			t.Errorf("%v m/s: %.2f Position evaluations per StartTx, budget %.2f", tc.speed, mean, tc.budget)
		}
	}
}
