//go:build race

package moft

// raceEnabled reports that this binary carries race-detector
// instrumentation, whose shadow allocations make byte-count gates
// meaningless. Those gates skip; identity gates always run.
const raceEnabled = true
