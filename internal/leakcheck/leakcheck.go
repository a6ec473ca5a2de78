// Package leakcheck is the test suites' shared goroutine-leak assertion:
// code that starts goroutines (the runtime's workers and comm goroutines,
// the job manager's executors) must leave none behind however it ends.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// Guard records the goroutine count and returns a check that waits for the
// count to settle back to at most that baseline, failing t with every
// goroutine's stack if it has not within 15 s, a window generous enough
// for race-detector scheduling on a loaded 1-CPU host. Goroutines of the
// code under test may still be on their way out when it returns, so the
// check polls instead of comparing once. Typical use:
//
//	defer leakcheck.Guard(t)()
func Guard(t testing.TB) (check func()) {
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for {
			n := runtime.NumGoroutine()
			if n <= base {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("goroutines leaked: %d now vs %d before\n%s", n, base, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
