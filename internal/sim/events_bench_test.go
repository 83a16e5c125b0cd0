package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEventQueueMix measures the queue under the engine's event mix:
// one clocked object ticking every period plus a fixed population of
// completions, each re-armed 1–4 periods out when it fires (the latency
// spread of compute and memory responses). One iteration simulates one
// clock period; ns/event divides host time by events fired.
func BenchmarkEventQueueMix(b *testing.B) {
	for _, pending := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			q := NewEventQueue()
			clk := NewClockDomain("clk", 1000)
			var c Clocked
			c.InitClocked("tick", q, clk)
			c.CycleFn = func() bool { return true }
			c.Activate()
			var lcg uint64 = 1
			for i := 0; i < pending; i++ {
				var r *Recurring
				r = q.NewRecurring(PriBeforeClock, func() {
					lcg = lcg*6364136223846793005 + 1442695040888963407
					r.ScheduleAfter(clk.Period() * Tick(1+lcg>>62))
				})
				r.ScheduleAfter(clk.Period() * Tick(1+i%4))
			}
			q.RunUntil(q.Now() + 16*clk.Period()) // warm the slot arena
			b.ReportAllocs()
			b.ResetTimer()
			fired := q.Fired()
			for i := 0; i < b.N; i++ {
				q.RunUntil(q.Now() + clk.Period())
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(q.Fired()-fired), "ns/event")
		})
	}
}
