package bench

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadClock returns the CPU time the calling OS thread has consumed.
// Time the thread spends preempted by other threads or processes does
// not advance it.
func threadClock() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
