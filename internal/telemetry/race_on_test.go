//go:build race

package telemetry_test

// raceEnabled reports that this binary carries race-detector
// instrumentation, which multiplies the nanosecond-scale record path
// about tenfold. Timing gates skip; the others always run.
const raceEnabled = true
