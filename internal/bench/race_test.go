//go:build race

package bench

// raceEnabled: the race detector's runtime allocates on its own account, so
// the bytes-per-execution guards do not hold under -race.
const raceEnabled = true
