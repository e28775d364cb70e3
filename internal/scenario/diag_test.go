package scenario

// stripElisionBreakdown returns a copy of the result with the
// event-accounting breakdown zeroed. The breakdown intentionally
// differs across reception models — the batched model moves
// per-receiver receptions from EventsProcessed to ElidedRadio — while
// their sum, Result.Events, stays bit-identical. Differential tests
// that cross the rx-model axis compare Results modulo that
// redistribution; tests along every other axis (index, queue,
// metrics on/off) compare the raw structs, breakdown included.
func stripElisionBreakdown(r *Result) *Result {
	c := *r
	c.EventsProcessed = 0
	c.ElidedKernel = 0
	c.ElidedRadio = 0
	c.ElidedMAC = 0
	return &c
}
