//go:build race

package reliable

// raceEnabled reports a -race build, whose instrumentation allocates, so
// allocation counts are not meaningful.
const raceEnabled = true
