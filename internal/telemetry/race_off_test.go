//go:build !race

package telemetry_test

// raceEnabled is false in ordinary builds: timing gates enforce their
// bounds. See race_on_test.go.
const raceEnabled = false
