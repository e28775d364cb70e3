package sim

import (
	"fmt"
	"testing"
	"time"
)

// The scheduler microbenchmarks use a hold model: the queue is
// preloaded with `hold` pending events and every fired event schedules
// its replacement, so the queue stays at a constant depth while b.N
// pop+push cycles stream through it. That is the simulator's
// steady-state shape — hundreds of thousands of MAC/route/gossip
// timers pending while events churn — and it is where heap depth and
// per-event allocation dominate.
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

func benchQueueChurn(b *testing.B, kind queueImpl, hold int) {
	s := kind.scheduler()
	delays := &benchDelays{state: 1}
	var churn func()
	churn = func() { s.After(delays.next(), churn) }
	for i := 0; i < hold; i++ {
		churn()
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.RunAll(uint64(b.N))
	b.StopTimer()
	if got := s.Pending(); got != hold {
		b.Fatalf("hold model broken: %d pending, want %d", got, hold)
	}
}

func benchQueueChurnCancel(b *testing.B, kind queueImpl, hold int) {
	s := kind.scheduler()
	delays := &benchDelays{state: 2}
	var churn func()
	churn = func() {
		s.After(delays.next(), churn)
		// A second timer is scheduled and immediately cancelled — the
		// MAC-retry pattern that dominates cancellations in real runs.
		// This drives the cancelled count through the compaction policy.
		s.After(delays.next(), churn).Cancel()
	}
	for i := 0; i < hold; i++ {
		churn()
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.RunAll(uint64(b.N))
	b.StopTimer()
	if got := s.Pending(); got != hold {
		b.Fatalf("hold model broken: %d pending, want %d", got, hold)
	}
}

// benchQueueChurnClustered is the hold-model churn loop under the
// clustered (bimodal MAC-vs-mobility) delay distribution. Delays match
// the default mac.Config timing constants.
func benchQueueChurnClustered(b *testing.B, kind queueImpl, hold int) {
	const (
		sifs = 10 * time.Microsecond
		difs = 50 * time.Microsecond
		slot = 20 * time.Microsecond
	)
	s := kind.scheduler()
	delays := &benchDelays{state: 3}
	var churn func()
	churn = func() { s.After(delays.nextClustered(sifs, difs, slot), churn) }
	for i := 0; i < hold; i++ {
		churn()
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.RunAll(uint64(b.N))
	b.StopTimer()
	if got := s.Pending(); got != hold {
		b.Fatalf("hold model broken: %d pending, want %d", got, hold)
	}
}

// BenchmarkQueueChurn measures the pure push/pop path (fire one event,
// schedule its replacement) at fixed queue depths, with a reference
// leg so the quad heap's numbers always have their baseline next to
// them. The quad queue should be allocation-free per op; the ref queue
// pays two boxing allocations per cycle (heap.Push boxes the event into
// `any`, and heap.Pop's `any` return boxes it again).
func BenchmarkQueueChurn(b *testing.B) {
	for _, kind := range queueImpls {
		for _, hold := range queueBenchSizes {
			b.Run(fmt.Sprintf("%v/%d", kind, hold), func(b *testing.B) {
				benchQueueChurn(b, kind, hold)
			})
		}
	}
}

// BenchmarkQueueChurnCancel adds a cancel per fired event, exercising
// slot recycling and the compaction policy under churn.
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
