//go:build !race

// Package race tells tests whether they run under the race detector, whose
// instrumentation allocates: allocation-budget tests skip themselves there.
package race

// Enabled reports whether the race detector is compiled in.
const Enabled = false
