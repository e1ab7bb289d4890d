//go:build !race

package moft

// raceEnabled is false in ordinary builds: byte-count gates enforce
// their bounds. See race_on_test.go.
const raceEnabled = false
