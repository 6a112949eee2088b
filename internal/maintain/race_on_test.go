//go:build race

package maintain

// raceEnabled reports a -race build, under which sync.Pool drops a share
// of Put items at random, so allocation counts are not meaningful.
const raceEnabled = true
