package sim

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// maxTime is the saturation point of the scheduler's clock.
const maxTime = Time(math.MaxInt64)

// queueSet drives one scheduler per queue implementation (queueImpls:
// the production quad heap and the test-only reference) with an
// identical operation stream — the scheduler analogue of the radio
// layer's grid-vs-brute differential tests — and checks, after every
// operation, that they are indistinguishable: same fire order, same
// Pending, same clock, same Processed count.
type queueSet struct {
	t      testing.TB
	kinds  []queueImpl
	s      []*Scheduler
	timers [][]Timer
	fired  [][]int
	nextID int
}

func newQueueSet(t testing.TB) *queueSet {
	n := len(queueImpls)
	set := &queueSet{
		t:      t,
		kinds:  queueImpls,
		s:      make([]*Scheduler, n),
		timers: make([][]Timer, n),
		fired:  make([][]int, n),
	}
	for k, kind := range queueImpls {
		set.s[k] = kind.scheduler()
	}
	return set
}

func (p *queueSet) push(d Time) {
	id := p.nextID
	p.nextID++
	for k := range p.s {
		k := k
		p.timers[k] = append(p.timers[k], p.s[k].After(d, func() {
			p.fired[k] = append(p.fired[k], id)
		}))
	}
	p.check("push")
}

// pushAt schedules at an absolute time, exercising the At path and —
// with saturating deadlines — the top of the time range.
func (p *queueSet) pushAt(at Time) {
	id := p.nextID
	p.nextID++
	for k := range p.s {
		k := k
		p.timers[k] = append(p.timers[k], p.s[k].At(at, func() {
			p.fired[k] = append(p.fired[k], id)
		}))
	}
	p.check("pushAt")
}

func (p *queueSet) cancel(i int) {
	if len(p.timers[0]) == 0 {
		return
	}
	i %= len(p.timers[0])
	for k := range p.s {
		p.timers[k][i].Cancel()
	}
	p.check("cancel")
}

func (p *queueSet) step(max uint64) {
	n0, d0 := p.s[0].RunAll(max)
	for k := 1; k < len(p.s); k++ {
		n, d := p.s[k].RunAll(max)
		if n != n0 || d != d0 {
			p.t.Fatalf("RunAll(%d) diverged: %v (%d,%v) vs %v (%d,%v)",
				max, p.kinds[0], n0, d0, p.kinds[k], n, d)
		}
	}
	p.check("step")
}

func (p *queueSet) runTo(d Time) {
	until := p.s[0].Now() + d
	n0 := p.s[0].Run(until)
	for k := 1; k < len(p.s); k++ {
		if n := p.s[k].Run(until); n != n0 {
			p.t.Fatalf("Run(%v) diverged: %v executed %d, %v %d",
				until, p.kinds[0], n0, p.kinds[k], n)
		}
	}
	p.check("run")
}

func (p *queueSet) check(op string) {
	a := p.s[0]
	for k := 1; k < len(p.s); k++ {
		b := p.s[k]
		name := p.kinds[k]
		if a.Pending() != b.Pending() {
			p.t.Fatalf("after %s: Pending diverged: %v %d, %v %d",
				op, p.kinds[0], a.Pending(), name, b.Pending())
		}
		if a.Now() != b.Now() {
			p.t.Fatalf("after %s: clocks diverged: %v %v, %v %v",
				op, p.kinds[0], a.Now(), name, b.Now())
		}
		if a.Processed() != b.Processed() {
			p.t.Fatalf("after %s: Processed diverged: %v %d, %v %d",
				op, p.kinds[0], a.Processed(), name, b.Processed())
		}
		if len(p.fired[0]) != len(p.fired[k]) {
			p.t.Fatalf("after %s: fired %d events on %v, %d on %v",
				op, len(p.fired[0]), p.kinds[0], len(p.fired[k]), name)
		}
		for i := range p.fired[0] {
			if p.fired[0][i] != p.fired[k][i] {
				p.t.Fatalf("after %s: fire order diverged at %d: %v %v, %v %v",
					op, i, p.kinds[0], p.fired[0], name, p.fired[k])
			}
		}
	}
}

// runQueueScript interprets a byte string as a push/pop/cancel/run
// workload over the differential set, then drains every scheduler and
// re-checks. Shared by the property test and the fuzz target.
func runQueueScript(t testing.TB, script []byte) {
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
		switch next() % 7 {
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
		}
	}
	p.step(1 << 40) // drain
	if got := p.s[0].Pending(); got != 0 {
		t.Fatalf("drain left %d pending events", got)
	}
}

// TestQueueDifferentialRandomScripts fuzzes the queue implementations
// against each other with seeded random workloads — the property half
// of the fuzz/differential story; FuzzQueueDifferential lets the
// fuzzer search for adversarial scripts.
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
	}
}

// TestQueueDifferentialCompactionHeavy forces the cancellation count
// across the compaction threshold on every implementation and checks
// the survivors still fire identically.
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
	for k, s := range p.s {
		if got := s.q.len(); got >= 1000 {
			t.Fatalf("compaction never ran: %v queue still holds %d entries", p.kinds[k], got)
		}
	}
	p.step(1 << 40)
	if got := len(p.fired[0]); got != 200 {
		t.Fatalf("fired %d events, want the 200 survivors", got)
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
	if got := p.s[0].Pending(); got != 0 {
		t.Fatalf("drain left %d pending events", got)
	}
}

// FuzzQueueDifferential lets the fuzzer hunt for operation sequences
// that make the 4-ary pooled queue and the container/heap reference
// disagree. `go test` runs the seed corpus;
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
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 2048 {
			script = script[:2048]
		}
		runQueueScript(t, script)
	})
}
