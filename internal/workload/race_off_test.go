//go:build !race

package workload

// raceEnabled reports whether the test binary runs under the race
// detector, whose runtime allocates on paths that otherwise do not.
const raceEnabled = false
