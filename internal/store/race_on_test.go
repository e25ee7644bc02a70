//go:build race

package store

// raceEnabled reports that the race detector is on: sync.Pool then
// throws away a quarter of what is Put, so allocation budgets that
// assume a warm pool do not hold.
const raceEnabled = true
