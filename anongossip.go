// Package anongossip reproduces "Anonymous Gossip: Improving Multicast
// Reliability in Mobile Ad-Hoc Networks" (Chandra, Ramasubramanian,
// Birman — ICDCS 2001) as a self-contained Go library.
//
// Anonymous Gossip (AG) is a reliability layer for multicast in mobile
// ad-hoc networks: packets are first multicast over an unreliable
// multicast routing protocol (MAODV here, as in the paper), while a
// concurrent gossip phase recovers lost packets from other group members
// — without any member ever needing to know the group membership.
//
// The package is a facade over the full simulation stack in internal/:
// a deterministic discrete-event kernel, random-waypoint mobility, a
// unit-disc radio with collisions, an 802.11-style MAC, AODV unicast
// routing, MAODV multicast routing, the Anonymous Gossip engine, and a
// flooding baseline. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-versus-measured record.
//
// # Quick start
//
//	cfg := anongossip.DefaultConfig() // the paper's §5.1 environment
//	cfg.Seed = 42
//	res, err := anongossip.Run(cfg)
//	if err != nil { ... }
//	fmt.Printf("delivery %.1f%%, goodput %.1f%%\n",
//		100*res.DeliveryRatio(), res.MeanGoodput())
//
// # Composing stacks
//
// The protocol stack under test is composed from two axes — a multicast
// routing protocol and an optional loss-recovery layer — out of a fixed
// table of six stacks (Stacks lists them):
//
//	cfg.Stack = anongossip.StackSpec{Routing: "flood", Recovery: "gossip"}
//
// or by name, including the paper's figure labels ("gossip" is
// maodv+gossip, "odmrp-gossip" is odmrp+gossip):
//
//	cfg.Stack, err = anongossip.StackByName("odmrp+gossip")
//
// DefaultConfig selects maodv+gossip, the paper's "Gossip" curves; set
// cfg.Stack to StackSpec{Routing: "maodv"} for the bare-multicast
// baseline the paper compares against, or StackSpec{Routing: "flood"}
// for the related-work flooding baseline.
package anongossip

import (
	"io"
	"time"

	"anongossip/internal/scenario"
	"anongossip/internal/stack"
)

// StackSpec composes a protocol stack from the two axes: a routing
// protocol ("maodv", "odmrp", "flood") and an optional recovery layer
// ("gossip"). Assign one to Config.Stack.
type StackSpec = stack.Spec

// Stacks lists every protocol stack (the cross product of the routing
// and recovery axes) in deterministic order.
func Stacks() []StackSpec { return stack.Stacks() }

// StackNames lists the canonical name of every stack.
func StackNames() []string { return stack.Names() }

// StackByName resolves a stack name — canonical ("flood+gossip") or an
// alias ("gossip", "odmrp-gossip") — to its spec. The error of an
// unknown name lists every stack.
func StackByName(name string) (StackSpec, error) { return stack.ByName(name) }

// Config describes one simulation run; zero value is not usable — start
// from DefaultConfig.
type Config = scenario.Config

// Result is the outcome of one run.
type Result = scenario.Result

// MemberResult is one receiver's outcome within a Result.
type MemberResult = scenario.MemberResult

// Aggregate summarises one protocol at one sweep point across seeds.
type Aggregate = scenario.Aggregate

// ComparisonRow pairs Gossip and MAODV aggregates at one sweep point.
type ComparisonRow = scenario.ComparisonRow

// DefaultConfig returns the paper's §5.1 environment: 200 m × 200 m,
// 40 nodes (a third of them group members), 75 m transmission range,
// max speed 0.2 m/s with pauses uniform in [0, 80 s], 2 Mbps 802.11,
// and a CBR source sending 2201 × 64-byte packets (200 ms period,
// t = 120 s … 560 s) in a 600 s run.
func DefaultConfig() Config { return scenario.DefaultConfig() }

// Run executes one simulation and returns its collected results.
func Run(cfg Config) (*Result, error) { return scenario.Run(cfg) }

// RunSeeds executes cfg once per seed in parallel (the paper repeats
// every experiment with 10 random seeds).
func RunSeeds(cfg Config, seeds []int64, parallel int) ([]*Result, error) {
	return scenario.RunSeeds(cfg, seeds, parallel)
}

// AggregateResults merges per-seed results into a single summary.
func AggregateResults(results []*Result) Aggregate {
	return scenario.AggregateResults(results)
}

// RunComparison sweeps xs, running base's stack (MAODV+AG if it has no
// recovery layer) and its bare routing at each point, mirroring the
// paper's paired curves. apply reshapes base for an x value.
func RunComparison(base Config, xs []float64, apply func(Config, float64) Config,
	seeds []int64, parallel int) ([]ComparisonRow, error) {
	return scenario.RunComparison(base, xs, apply, seeds, parallel)
}

// Sweep is one x-axis experiment: a paper figure or a family beyond the
// paper (ID, table title, axis name, points, and the config transform).
type Sweep = scenario.Sweep

// Sweeps returns every x-axis experiment: the paper's Figs. 2–7, then
// the large-scale (EXPERIMENTS.md §L) and dense-traffic (§D) families,
// then the gossip ablations A2–A4.
func Sweeps() []Sweep { return scenario.Sweeps() }

// PrintComparison writes the rows of sweep s, run on base with the
// given number of seeds, as agbench's comparison table.
func PrintComparison(w io.Writer, s Sweep, base Config, seeds int, rows []ComparisonRow) {
	scenario.PrintComparison(w, s, base, seeds, rows)
}

// Seeds returns the canonical seed list {1..n}.
func Seeds(n int) []int64 { return scenario.Seeds(n) }

// LargeScaleConfig returns the ready-to-run large-scale configuration
// at one node count.
func LargeScaleConfig(nodes int) Config { return scenario.LargeScaleConfig(nodes) }

// ShortenedData rescales a run to a shorter duration while keeping the
// paper's warm-up and cool-down proportions; benchmarks and CI use it
// to keep large-scale runs affordable. Members still join at 8 s +
// U[0, 10 s), so below 90 s data starts before the last one can have
// joined.
func ShortenedData(c Config, duration time.Duration) Config {
	return scenario.ShortenedData(c, duration)
}

// DenseConfig returns the ready-to-run dense-traffic configuration at
// one node count and target mean degree, with multiple concurrent CBR
// sources.
func DenseConfig(nodes int, degree float64) Config {
	return scenario.DenseConfig(nodes, degree)
}
