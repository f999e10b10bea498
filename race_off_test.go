//go:build !race

package shufflejoin

const raceEnabled = false
