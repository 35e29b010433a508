//go:build linux || darwin || freebsd || netbsd || openbsd || dragonfly

package store

import "syscall"

// madviseRandom marks the mapping as random-access, suppressing the
// kernel's sequential readahead: adjacency walks jump between rows, so
// pages adjacent on disk are not the ones read next.
func madviseRandom(data []byte) error {
	return syscall.Madvise(data, syscall.MADV_RANDOM)
}
