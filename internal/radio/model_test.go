package radio

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"anongossip/internal/geom"
	"anongossip/internal/sim"
)

// compareFuzzWorlds asserts two completed fuzz worlds observed the
// identical simulation: same logs, channel statistics and per-node
// counters.
func compareFuzzWorlds(t *testing.T, label string, a, b *fuzzWorld, aName, bName string) {
	t.Helper()
	if len(a.log) != len(b.log) {
		t.Fatalf("%s: log lengths differ: %s %d, %s %d", label, aName, len(a.log), bName, len(b.log))
	}
	for i := range a.log {
		if a.log[i] != b.log[i] {
			t.Fatalf("%s: log line %d differs:\n%s: %s\n%s: %s", label, i, aName, a.log[i], bName, b.log[i])
		}
	}
	if as, bs := a.m.Stats(), b.m.Stats(); !reflect.DeepEqual(as, bs) {
		t.Fatalf("%s: stats differ: %s %+v, %s %+v", label, aName, as, bName, bs)
	}
	for i := range a.trs {
		as, ad, ac := a.trs[i].Counters()
		bs, bd, bc := b.trs[i].Counters()
		if as != bs || ad != bd || ac != bc {
			t.Fatalf("%s node %d: counters differ: %s (%d,%d,%d), %s (%d,%d,%d)",
				label, i, aName, as, ad, ac, bName, bs, bd, bc)
		}
	}
}

// runModelDifferential drives all four model × index combinations
// through the same op script and requires identical observations (the
// production walk reuses neighbour tables, refRx never has one).
func runModelDifferential(t *testing.T, label string, seed int64, n int, area geom.Rect,
	maxSpeed float64, ops []fuzzOp, horizon sim.Time) {
	t.Helper()
	var ref *fuzzWorld
	var refName string
	for _, o := range oracles {
		w := newFuzzWorld(o, seed, n, area, maxSpeed)
		w.schedule(ops)
		w.sched.Run(horizon)
		if ref == nil {
			ref, refName = w, o.String()
			continue
		}
		compareFuzzWorlds(t, label, w, ref, o.String(), refName)
	}
}

// TestReceptionModelsMatchUnderRandomTraffic is the reception-model
// differential property test: the batched and reference models (under
// both neighbour indexes) must produce identical reception and
// carrier-onset logs, carrier-sense answers, statistics and counters
// while mobile nodes transmit randomly. Op times are quantised to the
// frame airtime's divisors so exact overlaps, exact boundaries and
// same-instant bursts — the cases where the models' bookkeeping differs
// most — occur constantly rather than almost never. Half the
// transmissions are addressed to one node, so the logs also hold the
// rule that only the addressee's handler runs.
func TestReceptionModelsMatchUnderRandomTraffic(t *testing.T) {
	area := geom.Rect{W: 300, H: 300}
	for _, seed := range []int64{1, 2, 3} {
		opRNG := sim.NewRNG(seed).Derive("model-ops")
		const nNodes = 40
		var ops []fuzzOp
		for i := 0; i < 2500; i++ {
			// Quantised to 1 ms against a 2 ms airtime: frames routinely
			// start at another frame's exact start, midpoint or end.
			at := opRNG.Duration(100 * time.Second).Truncate(time.Millisecond)
			node := opRNG.Intn(nNodes)
			ops = append(ops, fuzzOp{at: at, node: node, kind: opRNG.Intn(4), to: opRNG.Intn(2 * nNodes)})
			// Every eighth op is duplicated at the same instant from
			// another node: same-instant transmission bursts.
			if i%8 == 0 {
				ops = append(ops, fuzzOp{at: at, node: opRNG.Intn(nNodes), kind: 0, to: opRNG.Intn(2 * nNodes)})
			}
			// Every fifth op opens a train of transmissions from its
			// node that spans several neighbour-table lifetimes
			// (234 ms at 5 m/s): frames that reuse a table, frames that
			// find it expired and rebuild it.
			if i%5 == 0 {
				for _, ms := range []int{10, 120, 230, 240, 400, 700} {
					ops = append(ops, fuzzOp{at: at + sim.Time(ms)*time.Millisecond, node: node, kind: 0})
				}
			}
		}
		runModelDifferential(t, fmt.Sprintf("seed %d", seed), seed, nNodes, area, 5, ops, 120*time.Second)
	}
}

// FuzzReceptionModelDifferential lets the fuzzer hunt for op schedules
// that split the reception models. Each 4-byte group decodes one op:
// time (quantised to half the airtime), node, and op kind with, for a
// transmission, its addressee (none: a broadcast).
func FuzzReceptionModelDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 0, 1, 1, 4, 1, 2, 0})
	f.Add([]byte{1, 0, 0, 0, 1, 1, 0, 0, 1, 2, 0, 0, 2, 3, 0, 0})
	f.Add([]byte{0, 0, 3, 3, 0, 1, 2, 2, 8, 2, 1, 0, 8, 3, 0, 1})
	// Addressed frames: a unicast, a collision at its addressee.
	f.Add([]byte{0, 0, 0, 8, 0, 0, 2, 4, 1, 0, 1, 12, 1, 0, 2, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || len(data) > 4*256 {
			t.Skip()
		}
		const nNodes = 12
		var ops []fuzzOp
		for i := 0; i+3 < len(data); i += 4 {
			// Steps of half the 2 ms op airtime keep starts, midpoints
			// and ends of different frames colliding exactly.
			at := time.Duration(int(data[i])|int(data[i+1])<<8) * time.Millisecond
			ops = append(ops, fuzzOp{
				at:   at,
				node: int(data[i+2]) % nNodes,
				kind: int(data[i+3]) % 4,
				to:   int(data[i+3]) / 4 % (nNodes + 1),
			})
		}
		runModelDifferential(t, "fuzz", 7, nNodes, geom.Rect{W: 200, H: 200}, 3, ops, time.Hour)
	})
}
