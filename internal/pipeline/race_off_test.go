//go:build !race

package pipeline_test

const raceAllocs = 0
