//go:build !(linux || darwin || freebsd || netbsd || openbsd || dragonfly)

package store

// madvise hints are advisory: platforms without them get correct (just
// cold-start-slower) behavior, so the stubs succeed silently.
func madviseRandom(data []byte) error   { return nil }
func madviseWillNeed(data []byte) error { return nil }
