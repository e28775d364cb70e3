// Highway: the paper's "communication between automobiles on highways"
// application. Vehicles move fast (up to 10 m/s here), so the multicast
// tree breaks constantly; the example shows how much of MAODV's loss
// Anonymous Gossip claws back as speed rises — the paper's Fig. 5 story.
//
//	go run ./examples/highway
package main

import (
	"fmt"
	"log"
	"os"

	"anongossip"
)

func main() {
	base := anongossip.DefaultConfig()
	base.TxRange = 75

	highway := anongossip.Sweep{
		ID:    "highway",
		Title: "Highway scenario: 40 vehicles, sweep of maximum speed",
		XName: "speed(m/s)",
		Xs:    []float64{2, 6, 10},
		Apply: func(c anongossip.Config, speed float64) anongossip.Config {
			c.MaxSpeed = speed
			return c
		},
	}
	seeds := anongossip.Seeds(2)
	rows, err := anongossip.RunComparison(base, highway.Xs, highway.Apply, seeds, 0)
	if err != nil {
		log.Fatal(err)
	}
	anongossip.PrintComparison(os.Stdout, highway, base, len(seeds), rows)
	fmt.Println("Both protocols degrade with speed (more link breaks), but the")
	fmt.Println("gossip phase keeps recovering packets while the tree is repaired.")
}
