//go:build !race

package maintain

const raceEnabled = false
