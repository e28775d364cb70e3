// Disaster relief: the paper's motivating scenario of field operations.
// A large rescue team (half the nodes) moves slowly through a staging
// area and must share situation updates reliably. The example runs
// every stack of the table (anongossip.Stacks) on the same seeds — the
// paper's headline MAODV-vs-MAODV+AG comparison plus the mesh and
// flooding axes, including flood+gossip.
//
//	go run ./examples/disasterrelief
package main

import (
	"fmt"
	"log"
	"time"

	"anongossip"
)

func main() {
	cfg := anongossip.DefaultConfig()
	cfg.Nodes = 50
	cfg.MemberFraction = 0.5 // large coordination group
	cfg.TxRange = 60         // handheld radios
	cfg.MaxSpeed = 0.5       // rescuers on foot
	cfg.MaxPause = 60 * time.Second
	cfg.Duration = 400 * time.Second
	cfg.DataStart = 60 * time.Second
	cfg.DataEnd = 360 * time.Second
	cfg.DataInterval = 250 * time.Millisecond // situation updates

	seeds := anongossip.Seeds(3)

	fmt.Println("Disaster-relief scenario: 50 nodes, 25-member group, 0.5 m/s")
	fmt.Printf("%-22s %10s %10s %10s %10s\n", "stack", "mean", "min", "max", "ratio")
	for _, s := range anongossip.Stacks() {
		c := cfg
		c.Stack = s
		results, err := anongossip.RunSeeds(c, seeds, 0)
		if err != nil {
			log.Fatal(err)
		}
		agg := anongossip.AggregateResults(results)
		fmt.Printf("%-22v %10.1f %10.0f %10.0f %9.1f%%\n",
			s, agg.Received.Mean, agg.Received.Min, agg.Received.Max,
			100*agg.DeliveryRatio())
	}
	fmt.Println("\nGossip recovers routing losses on every substrate: each +gossip")
	fmt.Println("row pulls the minimum member up against its bare-routing baseline.")
}
