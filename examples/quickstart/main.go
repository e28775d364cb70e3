// Quickstart: run the paper's baseline scenario once with MAODV plus
// Anonymous Gossip and print the delivery summary.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"anongossip"
)

func main() {
	cfg := anongossip.DefaultConfig() // the paper's §5.1 environment
	cfg.Seed = 42
	// The stack under test is composed from two axes, routing and
	// recovery; the paper's headline stack is Anonymous Gossip over
	// MAODV. Any other of the six stacks works the same way — try
	// {Routing: "flood", Recovery: "gossip"} or anongossip.StackByName.
	cfg.Stack = anongossip.StackSpec{Routing: "maodv", Recovery: "gossip"}

	res, err := anongossip.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Anonymous Gossip over MAODV — %d nodes, %.0f m range, max speed %.1f m/s\n",
		cfg.Nodes, cfg.TxRange, cfg.MaxSpeed)
	fmt.Printf("source sent           %d packets\n", res.Sent)
	fmt.Printf("mean received         %.1f  (min %.0f, max %.0f across %d members)\n",
		res.Received.Mean, res.Received.Min, res.Received.Max, res.Received.N)
	fmt.Printf("delivery ratio        %.1f%%\n", 100*res.DeliveryRatio())
	fmt.Printf("mean goodput          %.1f%%  (non-duplicate share of gossip replies)\n",
		res.MeanGoodput())

	recovered := 0
	for _, m := range res.Members {
		recovered += m.Recovered
	}
	fmt.Printf("packets recovered     %d by gossip across all members\n", recovered)
	fmt.Printf("simulation executed   %d events\n", res.Events)
}
