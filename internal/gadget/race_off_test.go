//go:build !race

package gadget

// raceEnabled mirrors race_on_test.go for ordinary builds.
const raceEnabled = false
