//go:build !linux

package bench

import "time"

var clockEpoch = time.Now()

// threadClock falls back to wall time where no per-thread CPU clock is
// wired up, so a busy machine's preemptions count toward the pass.
func threadClock() time.Duration { return time.Since(clockEpoch) }
