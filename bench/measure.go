package main

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeReps calls fn reps times after one discarded warm-up call and
// returns the median duration of a call.
func timeReps(reps int, fn func()) time.Duration {
	fn()
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// selfCPU returns the user+system CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// it is 100 on every Linux platform Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns the user+system CPU time of a live process. A child
// that has not been waited for is absent from RUSAGE_CHILDREN, so the
// worker processes are read from /proc.
func procCPU(pid int) time.Duration {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name is parenthesised and may contain spaces; the
	// numbered fields resume after the last ')'. utime and stime are
	// fields 14 and 15, that is 12 and 13 after the name.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0
	}
	f := bytes.Fields(data[i+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(string(f[11]), 10, 64)
	st, _ := strconv.ParseInt(string(f[12]), 10, 64)
	return time.Duration(ut+st) * clockTick
}

// procPeakRSS returns the peak resident set of a live process in MB
// (VmHWM of /proc/<pid>/status), or 0 where /proc is missing.
func procPeakRSS(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(string(f[0]), 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// selfPeakRSS returns this process's peak resident set in MB.
func selfPeakRSS() float64 {
	if mb := procPeakRSS(os.Getpid()); mb > 0 {
		return mb
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
