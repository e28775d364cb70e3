// Loopback3: run the protocol stack LIVE — three nodes as goroutines
// on an in-process transport, no simulator, wall-clock timers — and
// stream a short multicast publication end to end.
//
// This is the hermetic twin of a real agnode cluster (see cmd/agnode
// for the UDP version): the same engines, the same runtime boundary,
// only the transport differs.
//
//	go run ./examples/loopback3
package main

import (
	"fmt"
	"log"
	"time"

	"anongossip/internal/pkt"
	"anongossip/internal/runtime/netrt"
	"anongossip/internal/stack"
)

const group pkt.GroupID = 0xE0000001

func main() {
	tr := netrt.NewChanTransport()

	// Three live nodes, each with its own event-loop goroutine.
	// TimeScale 10 runs protocol timers at 10x wall speed — drop it to
	// 1 to watch the cluster behave in real time.
	nodes := make([]*netrt.ProtocolNode, 3)
	for i := range nodes {
		pn, err := netrt.NewProtocolNode(netrt.ProtocolConfig{
			Node:  netrt.NodeConfig{ID: pkt.NodeID(i + 1), TimeScale: 10},
			Stack: stack.Spec{Routing: "flood"},
			Seed:  int64(i),
		}, tr)
		if err != nil {
			log.Fatal(err)
		}
		defer pn.Close()
		nodes[i] = pn
	}

	// Subscribe before starting, then join the multicast group.
	for _, pn := range nodes {
		id := pn.ID()
		pn.OnDeliver(func(g pkt.GroupID, d *pkt.Data, recovered bool) {
			fmt.Printf("node %v delivered %v#%d\n", id, d.Origin, d.Seq)
		})
		pn.Start()
	}
	for _, pn := range nodes {
		if err := pn.Join(group); err != nil {
			log.Fatal(err)
		}
	}

	// Node 1 publishes a short stream; flooding carries it to the rest.
	const packets = 5
	for i := 0; i < packets; i++ {
		key, err := nodes[0].Publish(group)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("node %v published %v\n", nodes[0].ID(), key)
		time.Sleep(50 * time.Millisecond)
	}

	// Wait (briefly) for the last rebroadcasts to land.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for _, pn := range nodes[1:] {
			n, err := pn.Delivered()
			if err != nil {
				log.Fatal(err)
			}
			if n < packets {
				done = false
			}
		}
		if done {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	for _, pn := range nodes {
		n, err := pn.Delivered()
		if err != nil {
			log.Fatal(err)
		}
		ls := pn.Runtime().Stats()
		fmt.Printf("node %v: delivered %d/%d, frames in %d out %d\n",
			pn.ID(), n, packets, ls.FramesIn.Load(), ls.FramesOut.Load())
	}
}
