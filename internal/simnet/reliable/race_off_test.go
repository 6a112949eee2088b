//go:build !race

package reliable

const raceEnabled = false
