//go:build linux || darwin || freebsd || netbsd || openbsd || dragonfly

package store

import "syscall"

// madviseRandom marks the mapping as random-access, suppressing the
// kernel's sequential readahead: a worker that owns 1/N of the rows
// should not fault in its neighbors' pages just because they are
// adjacent on disk.
func madviseRandom(data []byte) error {
	return syscall.Madvise(data, syscall.MADV_RANDOM)
}

// madviseWillNeed asks the kernel to start paging the span in — the
// owned partition of a range-partitioned worker.
func madviseWillNeed(data []byte) error {
	return syscall.Madvise(data, syscall.MADV_WILLNEED)
}
