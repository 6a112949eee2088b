//go:build race

package simnet

// raceEnabled reports a -race build, under which sync.Pool drops a share
// of Put items at random, so pooled-capacity accounting is not meaningful.
const raceEnabled = true
