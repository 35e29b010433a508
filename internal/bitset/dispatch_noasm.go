//go:build !amd64 || noasm

package bitset

// Portable build: no vector kernels. simdAvailable false keeps simdOn
// permanently clear, so the exported wrappers never reach these stubs;
// they exist only to satisfy the linker and to fail loudly if the
// dispatch invariant is ever broken.

const simdAvailable = false

func andCountAsm(a, b *uint64, n int) int        { panic("bitset: asm kernel on noasm build") }
func andToAsm(dst, a, b *uint64, n int)          { panic("bitset: asm kernel on noasm build") }
func andCountToAsm(dst, a, b *uint64, n int) int { panic("bitset: asm kernel on noasm build") }
func orWithAsm(dst, a *uint64, n int)            { panic("bitset: asm kernel on noasm build") }
