// The benchmark is a module of its own so that it builds from its own
// build file; its import path sits under anongossip/, which is what lets
// it import anongossip/internal/... through the replace below.
module anongossip/bench

go 1.24

require anongossip v0.0.0

replace anongossip => ../
