// The claims benchmark is a module of its own so that it builds from its
// own directory and stays out of the simulator's `go build ./...`; the
// replace points back at the repository it measures.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
