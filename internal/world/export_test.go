package world

// WithPlanner exposes withPlanner to the external test package, whose
// benchmarks import internal/bench (which imports this package).
var WithPlanner = withPlanner
