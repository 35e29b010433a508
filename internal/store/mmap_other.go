//go:build !unix

package store

import (
	"errors"
	"os"
)

// mmapFile on platforms without syscall.Mmap always errors, which
// routes MapGraph to its heap read.
func mmapFile(f *os.File, size int) ([]byte, error) {
	return nil, errors.New("store: mmap not supported on this platform")
}

func munmap(data []byte) error { return nil }
