// Command agsim runs a single Anonymous Gossip simulation and prints a
// per-member delivery report.
//
// Usage:
//
//	agsim [flags]
//
// Examples:
//
//	agsim -protocol gossip -nodes 40 -range 75 -speed 0.2 -seed 1
//	agsim -protocol flood+gossip -range 55 -duration 600s -verbose
//
// The -protocol flag accepts any stack name ("maodv", "maodv+gossip",
// "flood+gossip", ...) plus the aliases ("gossip", "odmrp-gossip");
// -help lists them.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"anongossip"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "agsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("agsim", flag.ContinueOnError)
	cfg := anongossip.DefaultConfig()
	var (
		protocol = fs.String("protocol", "gossip",
			"protocol stack by name: "+strings.Join(anongossip.StackNames(), " | ")+
				" (aliases: gossip = maodv+gossip, odmrp-gossip = odmrp+gossip)")
		nodes      = fs.Int("nodes", cfg.Nodes, "total node count")
		members    = fs.Float64("members", cfg.MemberFraction, "fraction of nodes in the group")
		txRange    = fs.Float64("range", cfg.TxRange, "transmission range (m)")
		speed      = fs.Float64("speed", cfg.MaxSpeed, "maximum node speed (m/s)")
		pause      = fs.Duration("pause", cfg.MaxPause, "maximum waypoint pause")
		duration   = fs.Duration("duration", cfg.Duration, "simulated time")
		seed       = fs.Int64("seed", cfg.Seed, "random seed")
		interval   = fs.Duration("gossip-interval", cfg.Gossip.Interval, "gossip round period")
		panon      = fs.Float64("panon", cfg.Gossip.PAnon, "probability of anonymous vs cached gossip")
		verbose    = fs.Bool("verbose", false, "print per-member rows")
		traceN     = fs.Int("trace", 0, "dump the last N gossip/data packet events")
		metricsWin = fs.Duration("metrics-window", 0,
			"sample channel-utilization windows at this cadence and print the series (0 = off; observe-only, results are bit-identical)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec, err := anongossip.StackByName(*protocol)
	if err != nil {
		return err
	}
	cfg.Stack = spec
	cfg.Nodes = *nodes
	cfg.MemberFraction = *members
	cfg.TxRange = *txRange
	cfg.MaxSpeed = *speed
	cfg.MaxPause = *pause
	if *duration != cfg.Duration {
		cfg = anongossip.ShortenedData(cfg, *duration)
	}
	cfg.Seed = *seed
	cfg.Gossip.Interval = *interval
	cfg.Gossip.PAnon = *panon
	cfg.TraceCapacity = *traceN
	cfg.MetricsWindow = *metricsWin

	start := time.Now()
	res, err := anongossip.Run(cfg)
	if err != nil {
		return err
	}
	wall := time.Since(start)

	fmt.Printf("protocol     %v\n", res.Stack)
	fmt.Printf("environment  %d nodes, %.0f m range, %.1f m/s max, %v\n",
		cfg.Nodes, cfg.TxRange, cfg.MaxSpeed, cfg.Duration)
	fmt.Printf("workload     %d packets from %v\n", res.Sent, res.Source)
	fmt.Printf("delivery     mean %.1f  min %.0f  max %.0f  (ratio %.1f%%)\n",
		res.Received.Mean, res.Received.Min, res.Received.Max, 100*res.DeliveryRatio())
	if spec.Recovery != "" {
		fmt.Printf("goodput      %.1f%%\n", res.MeanGoodput())
	}
	fmt.Printf("overhead     control %d KB, payload %d KB, %d MAC collisions, %d route discoveries\n",
		res.ControlBytes/1024, res.PayloadBytes/1024, res.MACCollisions, res.RouteDiscoveries)
	fmt.Printf("simulator    %d events in %v (%.1fx real time)\n",
		res.Events, wall.Round(time.Millisecond), cfg.Duration.Seconds()/wall.Seconds())
	fmt.Printf("             processed %d, elided %d (kernel %d, radio %d, mac %d)\n",
		res.EventsProcessed, res.ElidedKernel+res.ElidedRadio+res.ElidedMAC,
		res.ElidedKernel, res.ElidedRadio, res.ElidedMAC)

	if *verbose {
		fmt.Printf("\n%8s %10s %10s %10s\n", "member", "received", "recovered", "goodput")
		members := append([]anongossip.MemberResult(nil), res.Members...)
		sort.Slice(members, func(i, j int) bool { return members[i].Node < members[j].Node })
		for _, m := range members {
			fmt.Printf("%8v %10d %10d %9.1f%%\n", m.Node, m.Received, m.Recovered, m.Goodput)
		}
	}
	if res.Metrics != nil {
		fmt.Printf("\nchannel utilization (%v windows):\n", res.Metrics.WindowLen)
		if err := res.Metrics.WriteTable(os.Stdout); err != nil {
			return err
		}
		totalAir := res.Channel.TotalAirtime()
		fmt.Printf("totals: %d transmissions, %v airtime (%.1f%% of the run)\n",
			res.Channel.TotalTx(), totalAir.Round(time.Millisecond),
			100*float64(totalAir)/float64(cfg.Duration))
	}
	if res.Trace != nil {
		fmt.Printf("\ntrace: %s\n", res.Trace.Summary())
		if err := res.Trace.Dump(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}
