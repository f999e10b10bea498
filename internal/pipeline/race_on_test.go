//go:build race

package pipeline_test

// raceAllocs is the allocations the race detector's instrumentation adds
// to a FoldMetrics call.
const raceAllocs = 2
