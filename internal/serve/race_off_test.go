//go:build !race

package serve

// raceEnabled mirrors the stdlib's internal/race.Enabled: under the race
// detector sync.Pool drops a random share of what is Put, so allocation
// counts that rest on a warm pool hold only without it.
const raceEnabled = false
