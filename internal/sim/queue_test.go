package sim

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// maxTime is the saturation point of the scheduler's clock.
const maxTime = Time(math.MaxInt64)

// The kernel is checked at two levels. queueScript drives every
// eventQueue implementation (queueImpls: the production quad heap and
// the container/heap reference) with one operation stream, including
// the compound operations that leave the quad heap's root empty.
// queueSet drives a Scheduler and schedModel — a test-side scheduler
// that keeps its entries in a slice and scans it for the minimum
// (at, seq) — with one operation stream, including callbacks that arm
// children, cancel past the compaction threshold and postpone timers.

// queueScript is the queue-level differential: one queue per
// implementation, the slots each holds, and the entries popped.
type queueScript struct {
	t      testing.TB
	qs     []eventQueue
	live   []map[int32]bool
	seq    uint64
	slot   int32
	popped int
}

func newQueueScript(t testing.TB) *queueScript {
	p := &queueScript{t: t}
	for _, kind := range queueImpls {
		p.qs = append(p.qs, kind.new())
		p.live = append(p.live, map[int32]bool{})
	}
	return p
}

// push enqueues one entry at at, which must be ≥ 0 as the Scheduler
// guarantees.
func (p *queueScript) push(at Time) {
	e := event{at: at, seq: p.seq, slot: p.slot}
	p.seq++
	p.slot++
	for k, q := range p.qs {
		q.push(e)
		p.live[k][e.slot] = true
	}
}

// pop removes the minimum from every queue and requires them to agree.
// It reports false, touching no queue, when the script's own count
// says they are empty: len would fill the quad heap's hole.
func (p *queueScript) pop() (event, bool) {
	if p.popped >= int(p.slot) {
		return event{}, false
	}
	var first event
	for k, q := range p.qs {
		e := q.pop()
		if k == 0 {
			first = e
		} else if e != first {
			p.t.Fatalf("pop diverged: %v %+v, %v %+v", queueImpls[0], first, queueImpls[k], e)
		}
		if !p.live[k][e.slot] {
			p.t.Fatalf("%v popped slot %d, which is not queued", queueImpls[k], e.slot)
		}
		delete(p.live[k], e.slot)
	}
	p.popped++
	return first, true
}

// peek requires every queue to report the same minimum.
func (p *queueScript) peek() {
	if p.popped >= int(p.slot) {
		return
	}
	first := p.qs[0].peek()
	for k, q := range p.qs[1:] {
		if e := q.peek(); e != first {
			p.t.Fatalf("peek diverged: %v %+v, %v %+v", queueImpls[0], first, queueImpls[k+1], e)
		}
	}
}

// compact drops every slot ≡ r (mod m) and checks that keep is asked
// about each queued slot exactly once — never about a popped one.
func (p *queueScript) compact(m, r int32) {
	dropped := 0
	for k, q := range p.qs {
		seen := map[int32]bool{}
		n := 0
		q.compact(func(slot int32) bool {
			if !p.live[k][slot] || seen[slot] {
				p.t.Fatalf("%v compact asked about slot %d (queued %v, seen %v)",
					queueImpls[k], slot, p.live[k][slot], seen[slot])
			}
			seen[slot] = true
			if slot%m != r {
				return true
			}
			delete(p.live[k], slot)
			n++
			return false
		})
		if len(seen) != len(p.live[k])+n {
			p.t.Fatalf("%v compact visited %d slots, %d queued", queueImpls[k], len(seen), len(p.live[k])+n)
		}
		dropped = n
	}
	p.popped += dropped
}

// check requires every queue to report the same length and minimum.
func (p *queueScript) check() {
	want := int(p.slot) - p.popped
	for k, q := range p.qs {
		if got := q.len(); got != want {
			p.t.Fatalf("%v holds %d entries, want %d", queueImpls[k], got, want)
		}
	}
	p.peek()
}

// runQueueScript interprets a byte string as operations on the queues
// themselves, then drains them.
func runQueueScript(t testing.TB, script []byte) {
	p := newQueueScript(t)
	i := 0
	next := func() byte {
		if i >= len(script) {
			return 0
		}
		b := script[i]
		i++
		return b
	}
	at := func(b byte) Time {
		switch {
		case b >= 250:
			return maxTime - Time(b%3)
		case b >= 200:
			return Time(b) * time.Hour
		default:
			return Time(b%64) * time.Millisecond
		}
	}
	for i < len(script) {
		switch next() % 10 {
		case 0, 1:
			p.push(at(next()))
		case 2:
			// Same-instant burst: seq must break the tie.
			d := at(next())
			p.push(d)
			p.push(d)
			p.push(d)
		case 3:
			p.pop()
		case 4:
			// pop→push: the push fills the hole the pop left.
			b := next()
			if e, ok := p.pop(); ok && e.at < maxTime-time.Hour {
				p.push(e.at + Time(b%16)*time.Millisecond)
			} else {
				p.push(at(b))
			}
		case 5:
			// pop→compact: compaction with the root empty.
			b := next()
			p.pop()
			p.compact(int32(2+b%5), int32(b/5%2))
		case 6:
			// pop→peek: peek fills the hole.
			p.pop()
			p.peek()
		case 7:
			// Drain to the hole: every entry popped, the last leaving
			// the quad heap an empty slice but for its hole; then an
			// optional push into it.
			for p.popped < int(p.slot) {
				p.pop()
			}
			if b := next(); b%2 == 0 {
				p.push(at(b))
			}
		case 8:
			b := next()
			p.compact(int32(2+b%5), int32(b/5%2))
		case 9:
			// Pops back to back: each fills the previous one's hole.
			for n := next() % 6; n > 0; n-- {
				p.pop()
			}
		}
		p.check()
	}
	for {
		if _, ok := p.pop(); !ok {
			break
		}
	}
	p.check()
}

// world is the Scheduler surface the scheduler-level differential
// drives, implemented by the kernel and by schedModel.
type world interface {
	after(d Time, fn func()) handle
	at(t Time, fn func()) handle
	every(first, period Time, n int, fn func())
	Run(until Time) uint64
	RunAll(max uint64) (uint64, bool)
	Now() Time
	NextAt() (Time, bool)
	Pending() int
	Processed() uint64
	Elided() uint64
}

// handle is the Timer surface the differential drives.
type handle interface {
	Cancel()
	Postpone(Time) bool
	Unpostpone()
	At() Time
	Done() bool
}

// kernel adapts the Scheduler to world.
type kernel struct{ *Scheduler }

func (k kernel) after(d Time, fn func()) handle { return k.After(d, fn) }
func (k kernel) at(t Time, fn func()) handle    { return k.At(t, fn) }
func (k kernel) every(first, period Time, n int, fn func()) {
	k.Every(first, period, n, fn)
}

// schedModel is the scheduler the kernel must be indistinguishable
// from, written for obviousness: pending entries (cancelled ones too,
// until popped or compacted) in a slice scanned for the minimum
// (at, seq), with the kernel's documented clamping, postponement and
// compaction rules. A series is its n firings armed by back-to-back
// at calls.
type schedModel struct {
	now               Time
	seq               uint64
	q                 []modelEntry
	timers            []modelTimerState
	processed, elided uint64
	cancelled         int
	// queuedAhead counts, over every series, the firings queued behind
	// its next one: the kernel's queue, and so its Pending and its
	// compaction threshold, holds a series once.
	queuedAhead int
}

type modelEntry struct {
	at  Time
	seq uint64
	id  int
}

type modelTimerState struct {
	fn        func()
	at, next  Time
	pending   bool
	cancelled bool
}

type modelTimer struct {
	m  *schedModel
	id int
}

func (m *schedModel) after(d Time, fn func()) handle {
	d = max(d, 0)
	t := m.now + d
	if t < m.now {
		t = maxTime
	}
	return m.at(t, fn)
}

func (m *schedModel) at(t Time, fn func()) handle {
	t = max(t, m.now)
	id := len(m.timers)
	m.timers = append(m.timers, modelTimerState{fn: fn, at: t, pending: true})
	m.q = append(m.q, modelEntry{at: t, seq: m.seq, id: id})
	m.seq++
	return modelTimer{m, id}
}

func (m *schedModel) every(first, period Time, n int, fn func()) {
	if n <= 0 {
		return
	}
	m.queuedAhead += n - 1
	left := n
	fire := func() {
		if left--; left > 0 {
			m.queuedAhead--
		}
		fn()
	}
	for i, t := 0, first; i < n; i++ {
		m.at(t, fire)
		if t += period; t < first {
			t = maxTime // saturate, as the kernel does
		}
	}
}

// min returns the index of the earliest entry; q must not be empty.
func (m *schedModel) min() int {
	best := 0
	for i, e := range m.q {
		b := m.q[best]
		if e.at < b.at || e.at == b.at && e.seq < b.seq {
			best = i
		}
	}
	return best
}

// step pops the earliest entry and handles it as the kernel does. It
// reports whether the entry counted against RunAll's budget (a fired
// event or a postponed hop) and whether it fired.
func (m *schedModel) step() (counted, fired bool) {
	i := m.min()
	e := m.q[i]
	m.q = append(m.q[:i], m.q[i+1:]...)
	tm := &m.timers[e.id]
	if tm.cancelled {
		m.cancelled--
		return false, false
	}
	m.now = e.at
	if tm.next > e.at {
		tm.at = tm.next
		m.q = append(m.q, modelEntry{at: tm.next, seq: m.seq, id: e.id})
		m.seq++
		m.elided++
		return true, false
	}
	tm.pending = false
	fn := tm.fn
	tm.fn = nil
	fn()
	m.processed++
	return true, true
}

func (m *schedModel) Run(until Time) uint64 {
	var n uint64
	for len(m.q) > 0 && m.q[m.min()].at <= until {
		if _, fired := m.step(); fired {
			n++
		}
	}
	m.now = max(m.now, until)
	return n
}

func (m *schedModel) RunAll(budget uint64) (uint64, bool) {
	var n uint64
	for len(m.q) > 0 && n < budget {
		if counted, _ := m.step(); counted {
			n++
		}
	}
	return n, len(m.q) == 0
}

func (m *schedModel) Now() Time         { return m.now }
func (m *schedModel) Pending() int      { return len(m.q) - m.cancelled - m.queuedAhead }
func (m *schedModel) Processed() uint64 { return m.processed }
func (m *schedModel) Elided() uint64    { return m.elided }

func (m *schedModel) NextAt() (Time, bool) {
	if len(m.q) == 0 {
		return 0, false
	}
	return m.q[m.min()].at, true
}

func (t modelTimer) Cancel() {
	m := t.m
	tm := &m.timers[t.id]
	if !tm.pending {
		return
	}
	tm.pending, tm.cancelled, tm.fn = false, true, nil
	m.cancelled++
	if m.cancelled >= 64 && m.cancelled > (len(m.q)-m.queuedAhead)/2 {
		live := m.q[:0]
		for _, e := range m.q {
			if !m.timers[e.id].cancelled {
				live = append(live, e)
			}
		}
		m.q, m.cancelled = live, 0
	}
}

func (t modelTimer) Postpone(at Time) bool {
	tm := &t.m.timers[t.id]
	if !tm.pending {
		return false
	}
	if at > tm.at && at > tm.next {
		tm.next = at
	}
	return true
}

func (t modelTimer) Unpostpone() {
	if tm := &t.m.timers[t.id]; tm.pending {
		tm.next = 0
	}
}

func (t modelTimer) At() Time   { return t.m.timers[t.id].at }
func (t modelTimer) Done() bool { return !t.m.timers[t.id].pending }

// What a timer armed by queueSet does when it fires, besides logging
// its id.
const (
	firePlain    = iota
	fireChildren // arm two plain children, one at the same instant
	fireCancel   // arm and cancel enough timers to force a compaction
	firePostpone // postpone an earlier timer
)

// queueSet drives the kernel and the model (worlds[0] and worlds[1])
// with an identical operation stream and checks, after every
// operation, that they are indistinguishable: same fire order, same
// Postpone answers, same Pending, NextAt, clock, Processed and Elided
// counts, and the same Done and At for every timer the script armed.
type queueSet struct {
	t       testing.TB
	worlds  [2]world
	timers  [2][]handle
	log     [2][]int
	checked int
	nseries int
}

var worldNames = [2]string{"kernel", "model"}

func newQueueSet(t testing.TB) *queueSet {
	return &queueSet{t: t, worlds: [2]world{kernel{NewScheduler()}, &schedModel{}}}
}

// kernel returns the Scheduler under test.
func (p *queueSet) kernel() *Scheduler { return p.worlds[0].(kernel).Scheduler }

// arm schedules one timer on world k, at t or, when abs is false, d
// after now. Ids are per world: both worlds arm in the same order.
func (p *queueSet) arm(k int, t Time, abs bool, what int) {
	id := len(p.timers[k])
	var burst []handle
	fn := func() {
		p.log[k] = append(p.log[k], id)
		p.fire(k, id, what, burst)
	}
	w := p.worlds[k]
	var h handle
	if abs {
		h = w.at(t, fn)
	} else {
		h = w.after(t, fn)
	}
	p.timers[k] = append(p.timers[k], h)
	if what == fireCancel {
		burst = p.burst(k, 70)
	}
}

// burst arms n far timers on world k. They fire, logging -3, only
// when the timer that was to cancel them was cancelled itself.
func (p *queueSet) burst(k, n int) []handle {
	hs := make([]handle, n)
	for i := range hs {
		hs[i] = p.worlds[k].after(time.Hour+Time(i), func() { p.log[k] = append(p.log[k], -3) })
	}
	return hs
}

// fire runs the behaviour of timer id on world k, inside its callback;
// burst is what arm armed for a fireCancel timer.
func (p *queueSet) fire(k, id, what int, burst []handle) {
	w := p.worlds[k]
	switch what {
	case fireChildren:
		p.arm(k, Time(id%7)*time.Millisecond, false, firePlain)
		p.arm(k, 0, false, firePlain)
	case fireCancel:
		// Cancelling the burst armed with this timer compacts, on a
		// small queue, before the callback arms anything. A second
		// burst of Pending() + 70 cancelled timers crosses the
		// threshold on any queue: cancelled then exceeds len/2.
		for _, h := range burst {
			h.Cancel()
		}
		for _, h := range p.burst(k, w.Pending()+70) {
			h.Cancel()
		}
	case firePostpone:
		h := p.timers[k][(id*7+3)%len(p.timers[k])]
		ok := h.Postpone(w.Now() + Time(id%11)*time.Millisecond)
		p.log[k] = append(p.log[k], -1-boolInt(ok))
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (p *queueSet) push(d Time) { p.pushDo(d, false, firePlain) }

// pushAt schedules at an absolute time, exercising the At path and —
// with saturating deadlines — the top of the time range.
func (p *queueSet) pushAt(at Time) { p.pushDo(at, true, firePlain) }

func (p *queueSet) pushDo(t Time, abs bool, what int) {
	for k := range p.worlds {
		p.arm(k, t, abs, what)
	}
	p.check("push")
}

// series arms an Every series on both worlds; each of its firings logs
// -10 minus the series' number.
func (p *queueSet) series(first, period Time, n int) {
	code := -10 - p.nseries
	p.nseries++
	for k, w := range p.worlds {
		w.every(first, period, n, func() { p.log[k] = append(p.log[k], code) })
	}
	p.check("every")
}

func (p *queueSet) cancel(i int) {
	if len(p.timers[0]) == 0 {
		return
	}
	i %= len(p.timers[0])
	for k := range p.worlds {
		p.timers[k][i].Cancel()
	}
	p.check("cancel")
}

func (p *queueSet) postpone(i int, d Time) {
	if len(p.timers[0]) == 0 {
		return
	}
	i %= len(p.timers[0])
	for k, w := range p.worlds {
		ok := p.timers[k][i].Postpone(w.Now() + d)
		p.log[k] = append(p.log[k], -1-boolInt(ok))
	}
	p.check("postpone")
}

func (p *queueSet) unpostpone(i int) {
	if len(p.timers[0]) == 0 {
		return
	}
	i %= len(p.timers[0])
	for k := range p.worlds {
		p.timers[k][i].Unpostpone()
	}
	p.check("unpostpone")
}

func (p *queueSet) step(max uint64) {
	n0, d0 := p.worlds[0].RunAll(max)
	n, d := p.worlds[1].RunAll(max)
	if n != n0 || d != d0 {
		p.t.Fatalf("RunAll(%d) diverged: kernel (%d,%v), model (%d,%v)", max, n0, d0, n, d)
	}
	p.check("step")
}

func (p *queueSet) runTo(d Time) {
	until := p.worlds[0].Now() + d
	n0 := p.worlds[0].Run(until)
	if n := p.worlds[1].Run(until); n != n0 {
		p.t.Fatalf("Run(%v) diverged: kernel executed %d, model %d", until, n0, n)
	}
	p.check("run")
}

func (p *queueSet) check(op string) {
	a, b := p.worlds[0], p.worlds[1]
	if a.Pending() != b.Pending() {
		p.t.Fatalf("after %s: Pending diverged: kernel %d, model %d", op, a.Pending(), b.Pending())
	}
	if a.Now() != b.Now() {
		p.t.Fatalf("after %s: clocks diverged: kernel %v, model %v", op, a.Now(), b.Now())
	}
	if a.Processed() != b.Processed() || a.Elided() != b.Elided() {
		p.t.Fatalf("after %s: counts diverged: kernel %d processed %d elided, model %d, %d",
			op, a.Processed(), a.Elided(), b.Processed(), b.Elided())
	}
	at, aok := a.NextAt()
	bt, bok := b.NextAt()
	if at != bt || aok != bok {
		p.t.Fatalf("after %s: NextAt diverged: kernel (%v,%v), model (%v,%v)", op, at, aok, bt, bok)
	}
	if len(p.log[0]) != len(p.log[1]) {
		p.t.Fatalf("after %s: kernel logged %d fires and postpones, model %d", op, len(p.log[0]), len(p.log[1]))
	}
	for i := p.checked; i < len(p.log[0]); i++ {
		if p.log[0][i] != p.log[1][i] {
			p.t.Fatalf("after %s: logs diverged at %d: kernel %v, model %v", op, i, p.log[0][i:], p.log[1][i:])
		}
	}
	p.checked = len(p.log[0])
	if len(p.timers[0]) != len(p.timers[1]) {
		p.t.Fatalf("after %s: kernel armed %d timers, model %d", op, len(p.timers[0]), len(p.timers[1]))
	}
	for i, ha := range p.timers[0] {
		hb := p.timers[1][i]
		if ha.Done() != hb.Done() {
			p.t.Fatalf("after %s: timer %d Done diverged: kernel %v, model %v", op, i, ha.Done(), hb.Done())
		}
		if !ha.Done() && ha.At() != hb.At() {
			p.t.Fatalf("after %s: timer %d At diverged: kernel %v, model %v", op, i, ha.At(), hb.At())
		}
	}
}

// runSchedScript interprets a byte string as a push/cancel/postpone/run
// workload over the kernel and the model, then drains both and
// re-checks.
func runSchedScript(t testing.TB, script []byte) {
	p := newQueueSet(t)
	i := 0
	next := func() byte {
		if i >= len(script) {
			return 0
		}
		b := script[i]
		i++
		return b
	}
	for i < len(script) {
		switch next() % 13 {
		case 0, 1:
			p.push(Time(next()%64) * time.Millisecond)
		case 2:
			// Same-instant burst: insertion order must break the tie.
			d := Time(next()%16) * time.Millisecond
			p.push(d)
			p.push(d)
			p.push(d)
		case 3:
			p.cancel(int(next()))
		case 4:
			p.step(uint64(next() % 8))
		case 5:
			p.runTo(Time(next()%128) * time.Millisecond)
		case 6:
			// Bimodal far deadline: hours-scale mobility-style timers
			// and, for the top byte values, deadlines at or near the
			// saturation boundary.
			b := next()
			switch {
			case b >= 250:
				p.pushAt(maxTime - Time(b%3))
			case b >= 128:
				p.push(Time(b) * time.Minute)
			default:
				p.push(Time(b) * time.Hour)
			}
		case 7:
			// A timer whose callback acts on the scheduler.
			b := next()
			p.pushDo(Time(b/3%32)*time.Millisecond, false, fireChildren+int(b%3))
		case 8:
			b := next()
			p.postpone(int(next()), Time(b%48)*time.Millisecond)
		case 9:
			p.unpostpone(int(next()))
		case 10:
			// A deadline on the tier boundary: one below, at and above
			// nearHorizon.
			p.push(nearHorizon + Time(int(next()%3)-1))
		case 11:
			// A postpone whose hop lands on either side of the tier
			// boundary.
			b := next()
			p.postpone(int(next()), nearHorizon+Time(int(b%3)-1)+Time(b/3%4)*10*time.Millisecond)
		case 12:
			// A series of up to 8 firings: the first from 16 ms in the
			// past to 47 ms ahead, periods from 0 (one same-instant
			// block) to past nearHorizon; the top byte values start it
			// at the saturation boundary.
			b, c := next(), next()
			first := p.worlds[0].Now() + Time(int(b%64)-16)*time.Millisecond
			if b >= 250 {
				first = maxTime - Time(b%3)
			}
			p.series(first, Time(c%8)*10*time.Millisecond, int(c/8%9))
		}
	}
	p.step(1 << 40) // drain
	if got := p.worlds[0].Pending(); got != 0 {
		t.Fatalf("drain left %d pending events", got)
	}
}

// TestQueueDifferentialRandomScripts runs seeded random workloads
// through both differentials — the property half of the
// fuzz/differential story; FuzzQueueDifferential lets the fuzzer
// search for adversarial scripts.
func TestQueueDifferentialRandomScripts(t *testing.T) {
	iters := 300
	if testing.Short() {
		iters = 60
	}
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < iters; iter++ {
		script := make([]byte, rng.Intn(400))
		rng.Read(script)
		runQueueScript(t, script)
		runSchedScript(t, script)
	}
}

// TestQueueDifferentialCompactionHeavy forces the cancellation count
// across the compaction threshold and checks the survivors still fire
// as the model's do.
func TestQueueDifferentialCompactionHeavy(t *testing.T) {
	p := newQueueSet(t)
	for i := 0; i < 1000; i++ {
		p.push(Time(i%13) * time.Millisecond)
	}
	for i := 0; i < 1000; i++ {
		if i%5 != 0 {
			p.cancel(i)
		}
	}
	if got := p.kernel().queued(); got >= 1000 {
		t.Fatalf("compaction never ran: queue still holds %d entries", got)
	}
	p.step(1 << 40)
	if got := len(p.log[0]); got != 200 {
		t.Fatalf("fired %d events, want the 200 survivors", got)
	}
}

// TestQueueDifferentialCallbackCompaction compacts from inside fired
// callbacks, where the quad heap's root is empty, over and over, with
// children and postponed hops in flight.
func TestQueueDifferentialCallbackCompaction(t *testing.T) {
	p := newQueueSet(t)
	for i := 0; i < 300; i++ {
		p.pushDo(Time(i%17)*time.Millisecond, false, i%4)
		if i%9 == 0 {
			p.postpone(i*5, Time(i%23)*time.Millisecond)
		}
		if i%25 == 0 {
			p.runTo(3 * time.Millisecond)
		}
	}
	p.step(1 << 40)
	if p.kernel().Elided() == 0 {
		t.Fatal("no postponed hop happened")
	}
}

// TestQueueDifferentialClustered replays the simulator's signature
// timestamp distribution — dense same-instant/SIFS/DIFS bursts against
// sparse long timers.
func TestQueueDifferentialClustered(t *testing.T) {
	p := newQueueSet(t)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 3000; i++ {
		switch rng.Intn(10) {
		case 0: // long mobility-style timer
			p.push(Time(1+rng.Intn(120)) * time.Second)
		case 1, 2: // DIFS + a few slots
			p.push(50*time.Microsecond + Time(rng.Intn(32))*20*time.Microsecond)
		default: // SIFS-scale cluster
			p.push(Time(rng.Intn(3)) * 10 * time.Microsecond)
		}
		if i%7 == 0 {
			p.runTo(Time(rng.Intn(200)) * time.Microsecond)
		}
		if i%11 == 0 {
			p.cancel(rng.Intn(1 << 16))
		}
	}
	p.step(1 << 40)
	if got := p.worlds[0].Pending(); got != 0 {
		t.Fatalf("drain left %d pending events", got)
	}
}

// FuzzQueueDifferential lets the fuzzer hunt for operation sequences
// that make the 4-ary heap and the container/heap reference, or the
// Scheduler and the model, disagree. `go test` runs the seed corpus;
// `go test -fuzz FuzzQueueDifferential ./internal/sim` explores.
func FuzzQueueDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 0, 10, 4, 2, 3, 1, 5, 50})
	f.Add([]byte{2, 0, 2, 0, 2, 0, 4, 7, 3, 0, 3, 1, 5, 127})
	// Far deadlines, saturation, then churn.
	f.Add([]byte{6, 255, 6, 200, 6, 100, 0, 10, 5, 127, 6, 251, 4, 7})
	seed := make([]byte, 256)
	rand.New(rand.NewSource(7)).Read(seed)
	f.Add(seed)
	// Callbacks that arm, compact and postpone; drains to the hole.
	f.Add([]byte{7, 1, 7, 2, 7, 3, 8, 5, 1, 0, 20, 7, 4, 7, 9, 1, 4, 7, 5, 60})
	// Pushes on the tier boundary, postpones across it, runs through it.
	f.Add([]byte{10, 0, 10, 1, 10, 2, 0, 3, 11, 0, 3, 11, 4, 0, 11, 11, 1, 5, 60, 10, 1, 4, 3, 5, 127})
	// Series beside same-instant pushes, cancels and postpones, one
	// from the past and one at saturation; runs through them.
	f.Add([]byte{0, 20, 12, 36, 41, 0, 20, 12, 4, 72, 3, 0, 8, 9, 1, 4, 3, 12, 251, 17, 5, 40, 4, 200})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 2048 {
			script = script[:2048]
		}
		runQueueScript(t, script)
		runSchedScript(t, script)
	})
}
