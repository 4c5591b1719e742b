//go:build race

package gadget

// raceEnabled skips the allocation gate under the detector, whose
// instrumentation allocates on its own.
const raceEnabled = true
