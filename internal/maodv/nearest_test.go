package maodv

import (
	"math/rand"
	"testing"
	"testing/quick"

	"anongossip/internal/pkt"
)

// The nearest-member field (paper §4.2) is a distributed minimum: the
// value a node advertises to next hop X is 1 + min(own membership as 0,
// min over other branches). These tests drive the advertisement formula
// (nearestValueFor) over synthetic trees until fixpoint and compare
// against ground-truth BFS distances.

// synthTree is an adjacency-list tree with a member set.
type synthTree struct {
	n      int
	adj    [][]int
	member []bool
}

// randomTree builds a uniformly random labelled tree of n nodes with
// each node independently a member with probability pMember (at least
// one member forced).
func randomTree(r *rand.Rand, n int, pMember float64) synthTree {
	t := synthTree{n: n, adj: make([][]int, n), member: make([]bool, n)}
	for i := 1; i < n; i++ {
		p := r.Intn(i)
		t.adj[i] = append(t.adj[i], p)
		t.adj[p] = append(t.adj[p], i)
	}
	anyMember := false
	for i := range t.member {
		if r.Float64() < pMember {
			t.member[i] = true
			anyMember = true
		}
	}
	if !anyMember {
		t.member[r.Intn(n)] = true
	}
	return t
}

// refDistance returns the hop count from `via` to the nearest member in
// the subtree reached by following the edge u->via (never crossing back
// through u), or pkt.NearestUnknown if that subtree has no member.
func (t synthTree) refDistance(u, via int) uint8 {
	type qe struct {
		node, dist int
	}
	queue := []qe{{via, 1}}
	visited := make([]bool, t.n)
	visited[u] = true
	visited[via] = true
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if t.member[cur.node] {
			return uint8(cur.dist)
		}
		for _, nb := range t.adj[cur.node] {
			if !visited[nb] {
				visited[nb] = true
				queue = append(queue, qe{nb, cur.dist + 1})
			}
		}
	}
	return pkt.NearestUnknown
}

// buildGroups constructs per-node group states mirroring the tree.
func (t synthTree) buildGroups() []*group {
	groups := make([]*group, t.n)
	for i := 0; i < t.n; i++ {
		g := &group{
			id:     1,
			member: t.member[i],
			inTree: true,
		}
		for _, nb := range t.adj[i] {
			g.next.put(pkt.NodeID(nb + 1)).enabled = true
		}
		groups[i] = g
	}
	return groups
}

// iterate runs synchronous advertisement rounds until fixpoint and
// reports the number of rounds.
func iterate(t synthTree, groups []*group) int {
	r := &Router{} // nearestValueFor depends only on group state
	for round := 1; ; round++ {
		changed := false
		for u := 0; u < t.n; u++ {
			for _, v := range t.adj[u] {
				val := r.nearestValueFor(groups[u], pkt.NodeID(v+1))
				e := groups[v].next.get(pkt.NodeID(u + 1))
				if e.nearest != val {
					e.nearest = val
					changed = true
				}
			}
		}
		if !changed {
			return round
		}
		if round > 4*t.n {
			return round // livelock guard; assertions will fail
		}
	}
}

func TestNearestMemberConvergesToBFSDistances(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(18)
		tree := randomTree(r, n, 0.35)
		groups := tree.buildGroups()
		iterate(tree, groups)

		for u := 0; u < n; u++ {
			for _, v := range tree.adj[u] {
				got := groups[u].next.get(pkt.NodeID(v + 1)).nearest
				want := tree.refDistance(u, v)
				if got != want {
					t.Fatalf("trial %d: node %d via %d nearest = %d, want %d\nmembers=%v adj=%v",
						trial, u, v, got, want, tree.member, tree.adj)
				}
			}
		}
	}
}

func TestNearestMemberConvergesWithinDiameterRounds(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 3 + r.Intn(15)
		tree := randomTree(r, n, 0.3)
		groups := tree.buildGroups()
		rounds := iterate(tree, groups)
		// Convergence is bounded by the tree diameter (< n) plus one
		// verification round.
		if rounds > n+1 {
			t.Fatalf("trial %d: %d rounds for %d nodes", trial, rounds, n)
		}
	}
}

// Property: after convergence, a member's advertised value toward any
// neighbour is at least 1, and every finite value is achievable (there
// is some member in the corresponding subtree).
func TestNearestMemberSoundnessProperty(t *testing.T) {
	f := func(seed int64, sizeRaw, pRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + int(sizeRaw%14)
		tree := randomTree(r, n, float64(pRaw%100)/100)
		groups := tree.buildGroups()
		iterate(tree, groups)
		for u := 0; u < n; u++ {
			for _, v := range tree.adj[u] {
				got := groups[u].next.get(pkt.NodeID(v + 1)).nearest
				if got == 0 {
					return false // distances through a link are >= 1
				}
				want := tree.refDistance(u, v)
				if (got == pkt.NearestUnknown) != (want == pkt.NearestUnknown) {
					return false // finite iff a member exists that way
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
