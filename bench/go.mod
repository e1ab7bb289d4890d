// The benchmark is a module of its own so that it builds from its own
// directory; the replace lets it import the engine's internal packages.
module mogis/bench

go 1.22

require mogis v0.0.0

replace mogis => ../
