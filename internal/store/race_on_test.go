//go:build race

package store

// raceEnabled reports that the race detector is on: sync.Pool then drops
// a quarter of what it is given, so allocation guards that rely on a
// warm pool cannot hold.
const raceEnabled = true
