//go:build race

package serve

// See race_off_test.go.
const raceEnabled = true
