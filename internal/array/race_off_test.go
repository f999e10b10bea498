//go:build !race

package array

const raceEnabled = false
