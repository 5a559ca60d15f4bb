package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// pinnedEnv marks a process that has already confined itself; its value
// is the CPU.
const pinnedEnv = "MAPA_BENCH_PINNED_CPU"

// pinToOneCPU confines a measuring run — the generator and, by
// inheritance, the daemon it starts — to the lowest CPU the process may
// use, then re-executes the benchmark so the Go runtime of both sizes
// itself for that one CPU.
//
// On the two shared vCPUs this benchmark is accepted on, the spread
// between runs of the same code was not the program's: with the daemon
// and the generator free to move, the daemon's idle P spins looking for
// work, every request crosses CPUs by IPI, and each vCPU halts and is
// woken thousands of times a second — all of it priced by the host at
// that moment. Ten-seed quartile spreads were 20–40%. On one CPU a
// request is a chain of local context switches: the same runs spread
// 2–6%, and they are faster. What is given up is parallelism inside the
// daemon, which two blocked callers on two cores barely exercised.
//
// A failure to pin is reported and the run goes on unpinned.
func pinToOneCPU() {
	if os.Getenv(pinnedEnv) != "" {
		return
	}
	// sched_setaffinity(0) confines the calling thread only; exec keeps
	// that thread's mask and drops every other thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var allowed [16]uint64
	if errno := affinity(syscall.SYS_SCHED_GETAFFINITY, &allowed); errno != 0 {
		fmt.Fprintln(os.Stderr, "bench: not pinned: sched_getaffinity:", errno)
		return
	}
	cpu := -1
	for i, word := range allowed {
		if word != 0 {
			cpu = i*64 + bits.TrailingZeros64(word)
			break
		}
	}
	if cpu < 0 {
		fmt.Fprintln(os.Stderr, "bench: not pinned: empty affinity mask")
		return
	}
	var one [16]uint64
	one[cpu/64] = 1 << (cpu % 64)
	if errno := affinity(syscall.SYS_SCHED_SETAFFINITY, &one); errno != 0 {
		fmt.Fprintln(os.Stderr, "bench: not pinned: sched_setaffinity:", errno)
		return
	}
	exe, err := os.Executable()
	if err == nil {
		err = syscall.Exec(exe, os.Args, append(os.Environ(), fmt.Sprintf("%s=%d", pinnedEnv, cpu)))
	}
	fmt.Fprintln(os.Stderr, "bench: not pinned: re-exec:", err)
	affinity(syscall.SYS_SCHED_SETAFFINITY, &allowed)
}

// affinity gets or sets the calling thread's CPU mask.
func affinity(call uintptr, mask *[16]uint64) syscall.Errno {
	_, _, errno := syscall.RawSyscall(call, 0, unsafe.Sizeof(*mask), uintptr(unsafe.Pointer(mask)))
	return errno
}
