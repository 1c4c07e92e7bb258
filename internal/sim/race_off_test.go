//go:build !race

package sim

// raceEnabled reports whether the race detector is compiled in; the
// allocation test skips under it (the detector allocates on its own).
const raceEnabled = false
