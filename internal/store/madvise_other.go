//go:build !(linux || darwin || freebsd || netbsd || openbsd || dragonfly)

package store

// madvise hints are advisory: platforms without them get correct
// behavior, so the stub succeeds silently.
func madviseRandom(data []byte) error { return nil }
