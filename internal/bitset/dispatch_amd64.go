//go:build amd64 && !noasm

package bitset

// Assembly kernel entry points (bitset_amd64.s). Callers guarantee
// n >= 1 and that all rows have at least n addressable words; the
// exported wrappers additionally keep n < minAsmWords on the scalar
// path, but the asm handles any n >= 1 so the direct-call tests can
// cover short and odd lengths.

//go:noescape
func andCountAsm(a, b *uint64, n int) int

//go:noescape
func andToAsm(dst, a, b *uint64, n int)

//go:noescape
func andCountToAsm(dst, a, b *uint64, n int) int

//go:noescape
func orWithAsm(dst, a *uint64, n int)

// cpuid executes the CPUID instruction with the given EAX/ECX inputs.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the extended control register describing which
// register states the OS saves on context switch.
func xgetbv0() (eax, edx uint32)

// simdAvailable reports whether the AVX2 kernels are usable on this
// CPU+OS. Hand-rolled CPUID probe (this module carries no
// dependencies): we need AVX2 and POPCNT support in hardware, plus
// OSXSAVE with XCR0 indicating the OS preserves XMM+YMM state.
var simdAvailable = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		popcntBit  = 1 << 23
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&(popcntBit|osxsaveBit|avxBit) != popcntBit|osxsaveBit|avxBit {
		return false
	}
	// XCR0 bits 1 (SSE/XMM) and 2 (AVX/YMM) must both be enabled by
	// the OS or executing VEX-encoded instructions faults.
	xlo, _ := xgetbv0()
	if xlo&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}
