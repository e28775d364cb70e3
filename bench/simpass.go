package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"time"

	"anongossip/internal/metrics"
	"anongossip/internal/scenario"
)

// passResult is the outcome of one pass of one workload.
type passResult struct {
	Workload  string `json:"workload"`
	Pass      int    `json:"pass"`
	Traced    bool   `json:"traced"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Failures gives the reason of the first failed operations.
	Failures []string `json:"failures,omitempty"`
	// Metrics holds every end-to-end metric (untraced pass) or every
	// per-layer metric (traced pass) by name.
	Metrics map[string]float64 `json:"metrics"`
	// Readings are plain-scale companions of encoded metrics, printed for
	// the reader and never compared: AG and bare delivery ratios, bytes
	// per achieved delivery.
	Readings map[string]float64 `json:"readings,omitempty"`
	// Fingerprints hash each run's simulated statistics, keyed by
	// "<stack>/<seed>". A perf-only change must leave them unchanged.
	Fingerprints map[string]string `json:"fingerprints,omitempty"`
	// WallS is the pass's wall_s, kept on traced passes too so the tracing
	// overhead can be computed against an untraced pass.
	WallS float64 `json:"wall_s"`
}

const maxFailureNotes = 8

func (p *passResult) fail(n int, format string, args ...any) {
	p.Failed += n
	if len(p.Failures) < maxFailureNotes {
		p.Failures = append(p.Failures, fmt.Sprintf(format, args...))
	}
}

// fingerprint hashes the simulated statistics of one run.
func fingerprint(r *scenario.Result) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(r.Sent))
	put(r.Events)
	for _, m := range r.Members {
		put(uint64(m.Node))
		put(uint64(m.Received))
		put(uint64(m.Recovered))
	}
	put(r.ControlBytes)
	put(r.PayloadBytes)
	put(r.MACCollisions)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// checkRun applies the per-operation correctness checks to one run and
// returns the reason it fails, or "".
func checkRun(c scenario.Config, r *scenario.Result) string {
	sources := c.NumSources
	if sources <= 0 {
		sources = 1
	}
	want := sources * c.ExpectedPackets()
	switch {
	// A lone source is the group leader and sends every packet. With
	// several sources the ones that join after the data window opened
	// miss its first packets, so the count may fall short but never
	// exceed.
	case r.Sent > want || (want > 0 && r.Sent == 0) || (sources == 1 && r.Sent != want):
		return fmt.Sprintf("sent %d packets, expected %d", r.Sent, want)
	case r.Events != r.EventsProcessed+r.ElidedKernel+r.ElidedRadio+r.ElidedMAC:
		return fmt.Sprintf("events %d != processed %d + elided %d+%d+%d",
			r.Events, r.EventsProcessed, r.ElidedKernel, r.ElidedRadio, r.ElidedMAC)
	}
	for _, m := range r.Members {
		if m.Received > r.Sent {
			return fmt.Sprintf("member %v received %d of %d sent", m.Node, m.Received, r.Sent)
		}
	}
	return ""
}

// timedRun is one operation: scenario.Run, timed on the host clock. A
// panic inside the simulator is reported as the operation's error.
func timedRun(c scenario.Config) (res *scenario.Result, d time.Duration, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	t0 := time.Now()
	res, err = scenario.Run(c)
	return res, time.Since(t0), err
}

// probeConfig turns a run's configuration into its construction probe:
// the same world, one nanosecond of simulated time and an empty data
// window, so scenario.Run builds and collects but simulates nothing.
func probeConfig(c scenario.Config) scenario.Config {
	c.Duration = 1
	c.DataStart, c.DataEnd = 1, 0
	c.MeasureHeap = false
	c.MetricsWindow = 0
	return c
}

// A set-up is repeated at least setupMinRepeats times, and then until
// setupBudget of host time is spent or setupMaxRepeats are done: the small
// worlds build in milliseconds and need many samples for a steady median,
// the 10k-node world takes 0.4 s and gets the minimum.
const (
	setupMinRepeats = 5
	setupMaxRepeats = 25
	setupBudget     = time.Second
)

// probeSetup measures the workload's set-up: generating the run
// configurations plus one construction probe per run. It repeats the
// whole set-up and returns the median, in seconds.
func probeSetup(name string, seed int64, quick bool) (float64, error) {
	var samples []float64
	start := time.Now()
	for i := 0; i < setupMaxRepeats && (i < setupMinRepeats || time.Since(start) < setupBudget); i++ {
		t0 := time.Now()
		w, err := buildWorkload(name, seed, quick)
		if err != nil {
			return 0, err
		}
		for _, c := range w.Runs {
			if _, err := scenario.Run(probeConfig(c)); err != nil {
				return 0, fmt.Errorf("construction probe: %w", err)
			}
		}
		samples = append(samples, time.Since(t0).Seconds())
	}
	return summarize(samples).Median, nil
}

// simPass runs one pass of a simulated workload. tr is nil on untraced
// passes; on traced ones every run executes under the profiler with the
// telemetry sampler armed, and the per-layer metrics replace the
// end-to-end ones. known carries fingerprints of earlier passes.
func simPass(w *workload, seed int64, quick bool, tr *tracer, known map[string]string, ref *hostRef) (*passResult, error) {
	p := &passResult{Workload: w.Name, Traced: tr != nil, Attempted: len(w.Runs),
		Metrics: map[string]float64{}, Readings: map[string]float64{}, Fingerprints: map[string]string{}}

	setupSpan := -1
	if tr != nil {
		setupSpan = tr.begin(0, "setup")
	}
	setupS, err := probeSetup(w.Name, seed, quick)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.end(setupSpan)
	}

	type outcome struct {
		cfg scenario.Config
		res *scenario.Result
		d   time.Duration
	}
	var done []outcome
	var m0, m1 runtime.MemStats
	runtime.GC() // start every pass from a settled heap
	runtime.ReadMemStats(&m0)
	for _, c := range w.Runs {
		if tr != nil {
			c.MetricsWindow = 10 * time.Second
		}
		var res *scenario.Result
		var d time.Duration
		var runErr error
		run := func() { res, d, runErr = timedRun(c) }
		key := fmt.Sprintf("%v/%d", c.Spec(), c.Seed)
		if tr != nil {
			if err := tr.profiled(0, "run."+c.Spec().String()+"."+fmt.Sprint(c.Seed), run); err != nil {
				return nil, err
			}
		} else {
			run()
		}
		if runErr != nil {
			p.fail(1, "%s: %v", key, runErr)
			continue
		}
		fp := fingerprint(res)
		if why := checkRun(c, res); why != "" {
			p.fail(1, "%s: %s", key, why)
		} else if prev, seen := known[key]; seen && prev != fp {
			p.fail(1, "%s: fingerprint %s differs from an earlier pass's %s", key, fp, prev)
		}
		known[key] = fp
		p.Fingerprints[key] = fp
		done = append(done, outcome{c, res, d})
		if len(w.Runs) >= refMinRuns {
			ref.sample(1)
		}
	}
	runtime.ReadMemStats(&m1)
	slow := ref.take()
	if len(done) == 0 {
		return p, nil
	}

	// Aggregate. "AG" is the stack under test (the one with a recovery
	// layer); the bare runs, on the same seeds, exist to price its gain.
	var (
		wall, agDelivery, bareDelivery, gain, goodput, heapPerNode float64
		events, agBytes, agOffered, agDelivered                    uint64
		agRuns, bareRuns                                           int
		agLatency                                                  []float64
	)
	for _, o := range done {
		wall += o.d.Seconds()
		events += o.res.Events
		heapPerNode += float64(o.res.HeapLiveBytes) / float64(o.cfg.Nodes)
		if o.cfg.Spec().Recovery == "" {
			bareDelivery += o.res.DeliveryRatio()
			bareRuns++
			continue
		}
		agRuns++
		agDelivery += o.res.DeliveryRatio()
		goodput += o.res.MeanGoodput()
		agBytes += o.res.ControlBytes + o.res.PayloadBytes
		agOffered += uint64(o.res.Sent * len(o.res.Members))
		for _, m := range o.res.Members {
			agDelivered += uint64(m.Received)
		}
		agLatency = append(agLatency, float64(o.d.Microseconds()))
	}
	// Host times are reported in the reference host's seconds, see hostRef.
	rawWall := wall
	wall /= slow
	for i := range agLatency {
		agLatency[i] /= slow
	}
	p.WallS = wall
	if agRuns > 0 {
		agDelivery /= float64(agRuns)
		goodput /= float64(agRuns)
	}
	if bareRuns > 0 {
		bareDelivery /= float64(bareRuns)
		gain = agDelivery - bareDelivery
	}

	if w.Headline && (agDelivery < 0.85 || gain <= 0 || goodput < 95) {
		p.fail(len(w.Runs)-p.Failed, "paper headline does not hold: delivery %.4f (want >= 0.85), gain %.4f (want > 0), goodput %.2f%% (want >= 95)",
			agDelivery, gain, goodput)
	}

	if tr != nil {
		results := make([]*scenario.Result, len(done))
		for i, o := range done {
			results[i] = o.res
		}
		simLayerCounts(p.Metrics, results)
		return p, nil
	}

	sort.Float64s(agLatency)
	p.Metrics["wall_s"] = wall
	p.Metrics["events_per_s"] = float64(events) / wall
	p.Metrics["mallocs_per_event"] = float64(m1.Mallocs-m0.Mallocs) / float64(events)
	p.Metrics["heap_bytes_per_node"] = heapPerNode / float64(len(done))
	p.Metrics["delivery_ratio"] = 1 + agDelivery
	p.Metrics["gossip_gain"] = 1 + gain
	p.Metrics["goodput_pct"] = goodput
	p.Metrics["tx_bytes_per_delivery"] = float64(agBytes) / float64(agOffered)
	p.Metrics["deliveries_per_s"] = float64(len(done)) / wall
	p.Metrics["deliver_p50_us"] = quantile(agLatency, 0.5)
	p.Metrics["deliver_p99_us"] = quantile(agLatency, 0.99)
	p.Metrics["setup_s"] = setupS

	p.Readings["host_slowdown"] = slow
	p.Readings["wall_raw_s"] = rawWall
	p.Readings["delivery_ag"] = agDelivery
	if bareRuns > 0 {
		p.Readings["delivery_bare"] = bareDelivery
	}
	if agDelivered > 0 {
		p.Readings["tx_bytes_per_achieved_delivery"] = float64(agBytes) / float64(agDelivered)
	}
	return p, nil
}

// simLayerCounts fills the boundary counts of a traced simulated pass
// from the public result fields, summed over the pass's runs.
func simLayerCounts(out map[string]float64, results []*scenario.Result) {
	var (
		events, processed, collisions, tx, attempts, retries uint64
		rounds, replies, replyNew, replyDup, recovered, recv uint64
		control, payload                                     uint64
		backoff                                              time.Duration
		air                                                  [metrics.NumLayers]time.Duration
		depth                                                float64
		windows                                              int
	)
	for _, r := range results {
		events += r.Events
		processed += r.EventsProcessed
		collisions += r.MACCollisions
		control += r.ControlBytes
		payload += r.PayloadBytes
		for _, m := range r.Members {
			replyNew += m.ReplyNew
			replyDup += m.ReplyDup
			recovered += uint64(m.Recovered)
			recv += uint64(m.Received)
		}
		if r.Channel != nil {
			tx += r.Channel.TotalTx()
			for l, a := range r.Channel.AirtimeByLayer {
				air[l] += a
			}
		}
		if r.Metrics != nil {
			for _, w := range r.Metrics.Windows {
				attempts += w.MACTxAttempts
				retries += w.MACRetries
				backoff += w.MACBackoff
				rounds += w.GossipRounds
				replies += w.GossipReplies
				depth += float64(w.QueueDepth)
				windows++
			}
		}
	}
	share := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	var airTotal time.Duration
	for _, a := range air {
		airTotal += a
	}
	out["sim.events_processed"] = float64(processed)
	out["sim.elided_share"] = share(float64(events-processed), float64(events))
	out["radio.collisions_per_tx"] = share(float64(collisions), float64(tx))
	out["mac.retries_per_attempt"] = share(float64(retries), float64(attempts))
	out["mac.backoff_sim_s"] = backoff.Seconds()
	out["mac.queue_depth_mean"] = share(depth, float64(windows))
	out["mac.airtime_routing_share"] = share(float64(air[metrics.LayerRouting]), float64(airTotal))
	out["mac.airtime_data_share"] = share(float64(air[metrics.LayerData]), float64(airTotal))
	out["mac.airtime_gossip_share"] = share(float64(air[metrics.LayerGossip]), float64(airTotal))
	out["gossip.rounds"] = float64(rounds)
	out["gossip.replies"] = float64(replies)
	out["gossip.reply_new_share"] = share(float64(replyNew), float64(replyNew+replyDup))
	out["gossip.recovered_share"] = share(float64(recovered), float64(recv))
	out["node.control_bytes"] = float64(control)
	out["node.payload_bytes"] = float64(payload)
}
