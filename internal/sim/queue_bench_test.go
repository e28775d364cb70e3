package sim

import (
	"fmt"
	"testing"
	"time"
)

// The queue microbenchmarks use a hold model at the queue level, so
// the production heap and the reference are timed on one seam: the
// queue is preloaded with `hold` pending entries and every popped entry
// is replaced by one later entry, so the queue stays at a constant
// depth while b.N pop+push cycles stream through it. That is the
// simulator's steady-state shape — hundreds of thousands of
// MAC/route/gossip timers pending while events churn — and it is where
// heap depth and per-event allocation dominate. The Scheduler's own
// cost, tiers included, is BenchmarkSchedulerPaperMix's; the whole
// simulator's is BenchmarkSingleRun's (the root package).
//
// CI runs these with -benchtime=1x as a build/assert smoke test;
// meaningful timings need the default benchtime.

var queueBenchSizes = []int{1_000, 10_000, 100_000, 1_000_000, 10_000_000}

// benchDelays is a tiny splitmix-style generator so delay generation
// costs a few arithmetic ops and no allocation.
type benchDelays struct{ state uint64 }

func (g *benchDelays) bits() uint64 {
	g.state += 0x9E3779B97F4A7C15
	z := g.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (g *benchDelays) next() Time {
	return Time(g.bits() % uint64(time.Hour))
}

// nextClustered reproduces the simulator's signature bimodal timestamp
// distribution: the bulk of delays are MAC contention steps quantised
// to SIFS/DIFS/slot-time granularity (tight same-instant clusters),
// with a sparse tail of seconds-scale mobility/route timers.
func (g *benchDelays) nextClustered(cfgSIFS, cfgDIFS, slot Time) Time {
	z := g.bits()
	switch {
	case z%16 == 0: // mobility/route timer: 1–64 s
		return Time(1+(z>>8)%64) * time.Second
	case z%16 < 6: // SIFS turnaround burst
		return cfgSIFS
	default: // DIFS + 0..31 backoff slots
		return cfgDIFS + Time((z>>8)%32)*slot
	}
}

// churner is the hold model's driver: a queue, the clock, and the
// Scheduler's slot bookkeeping for cancelled entries — a dead mark per
// slot, a free list, and compaction once the dead outnumber the live.
type churner struct {
	q         eventQueue
	now       Time
	seq       uint64
	dead      []bool
	free      []int32
	cancelled int
	delay     func() Time
	// cancelOne arms and cancels a second entry per fired one.
	cancelOne bool
}

func (c *churner) push(at Time) int32 {
	var slot int32
	if n := len(c.free); n > 0 {
		slot = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		slot = int32(len(c.dead))
		c.dead = append(c.dead, false)
	}
	c.q.push(event{at: at, seq: c.seq, slot: slot})
	c.seq++
	return slot
}

// churn arms the replacement for one fired entry — and, in the cancel
// model, a second entry that is cancelled at once, the MAC-retry
// pattern that dominates cancellations in real runs.
func (c *churner) churn() {
	c.push(c.now + c.delay())
	if !c.cancelOne {
		return
	}
	c.dead[c.push(c.now+c.delay())] = true
	c.cancelled++
	if c.cancelled >= 64 && c.cancelled > c.q.len()/2 {
		c.q.compact(func(slot int32) bool {
			if c.dead[slot] {
				c.dead[slot] = false
				c.free = append(c.free, slot)
				return false
			}
			return true
		})
		c.cancelled = 0
	}
}

// fire pops entries until a live one fires, then churns.
func (c *churner) fire() {
	for {
		e := c.q.pop()
		c.free = append(c.free, e.slot)
		if c.dead[e.slot] {
			c.dead[e.slot] = false
			c.cancelled--
			continue
		}
		c.now = e.at
		c.churn()
		return
	}
}

func benchChurn(b *testing.B, kind queueImpl, hold int, cancelOne bool, delay func() Time) {
	c := &churner{q: kind.new(), delay: delay, cancelOne: cancelOne}
	for i := 0; i < hold; i++ {
		c.churn()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.fire()
	}
	b.StopTimer()
	if got := c.q.len() - c.cancelled; got != hold {
		b.Fatalf("hold model broken: %d pending, want %d", got, hold)
	}
}

func benchQueueChurn(b *testing.B, kind queueImpl, hold int) {
	delays := &benchDelays{state: 1}
	benchChurn(b, kind, hold, false, delays.next)
}

func benchQueueChurnCancel(b *testing.B, kind queueImpl, hold int) {
	delays := &benchDelays{state: 2}
	benchChurn(b, kind, hold, true, delays.next)
}

// benchQueueChurnClustered is the hold model under the clustered
// (bimodal MAC-vs-mobility) delay distribution. Delays match the MAC's
// timing constants.
func benchQueueChurnClustered(b *testing.B, kind queueImpl, hold int) {
	const (
		sifs = 10 * time.Microsecond
		difs = 50 * time.Microsecond
		slot = 20 * time.Microsecond
	)
	delays := &benchDelays{state: 3}
	benchChurn(b, kind, hold, false, func() Time { return delays.nextClustered(sifs, difs, slot) })
}

// BenchmarkQueueChurn measures the pure pop+push path (fire one entry,
// push its replacement) at fixed queue depths, with a reference leg so
// the quad heap's numbers always have their baseline next to them. The
// quad queue should be allocation-free per op; the ref queue pays two
// boxing allocations per cycle (heap.Push boxes the event into `any`,
// and heap.Pop's `any` return boxes it again).
func BenchmarkQueueChurn(b *testing.B) {
	for _, kind := range queueImpls {
		for _, hold := range queueBenchSizes {
			b.Run(fmt.Sprintf("%v/%d", kind, hold), func(b *testing.B) {
				benchQueueChurn(b, kind, hold)
			})
		}
	}
}

// BenchmarkQueueChurnCancel adds a cancel per fired entry, exercising
// compaction and tombstone pops under churn.
func BenchmarkQueueChurnCancel(b *testing.B) {
	for _, kind := range queueImpls {
		for _, hold := range queueBenchSizes {
			b.Run(fmt.Sprintf("%v/%d", kind, hold), func(b *testing.B) {
				benchQueueChurnCancel(b, kind, hold)
			})
		}
	}
}

// BenchmarkQueueChurnClustered churns under the simulator's actual
// steady-state distribution: heavy SIFS/DIFS/slot-granularity
// clustering with a sparse mobility tail.
func BenchmarkQueueChurnClustered(b *testing.B) {
	for _, kind := range queueImpls {
		for _, hold := range queueBenchSizes {
			b.Run(fmt.Sprintf("%v/%d", kind, hold), func(b *testing.B) {
				benchQueueChurnClustered(b, kind, hold)
			})
		}
	}
}

// BenchmarkSchedulerPaperMix drives a real Scheduler through 440 s of
// the paper baseline's pending set (40 nodes, EXPERIMENTS.md hot-path
// ledger, §AD): the CBR source as one Every series of 2,200 sends
// 200 ms apart, as the scenario schedules it, 80 self-re-arming 600 ms
// protocol ticks (a hello and a sweep tick per node) and 8 channel
// chains that re-arm 10 µs–20 ms ahead, the contention steps and frame
// finishes that churn at the front of the queue. One op is one pass; ns/event is the cost
// per fired event.
func BenchmarkSchedulerPaperMix(b *testing.B) {
	const (
		horizon = 440 * time.Second
		sends   = 2_200
		cbr     = 200 * time.Millisecond
		ticks   = 80
		chains  = 8
		period  = 600 * time.Millisecond
		minStep = 10 * time.Microsecond
		maxStep = 20 * time.Millisecond
	)
	g := &benchDelays{state: 4}
	var events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := NewScheduler()
		s.Every(0, cbr, sends, func() {})
		for j := 0; j < ticks; j++ {
			var tick func()
			tick = func() { s.After(period, tick) }
			s.After(Time(j)*period/ticks, tick)
		}
		for j := 0; j < chains; j++ {
			var step func()
			step = func() { s.After(minStep+Time(g.bits()%uint64(maxStep-minStep)), step) }
			s.After(Time(j)*minStep, step)
		}
		b.StartTimer()
		s.Run(horizon)
		events += s.Processed()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}
