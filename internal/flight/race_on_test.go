//go:build race

package flight

// raceEnabled reports that the race detector is compiled in; timing
// ceilings do not hold under its instrumentation.
const raceEnabled = true
