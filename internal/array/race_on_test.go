//go:build race

package array

// raceEnabled reports that the race detector is compiled in; its
// instrumentation allocates, so allocation ceilings do not hold.
const raceEnabled = true
