//go:build unix

package benchreg

import "syscall"

// userSeconds returns the user CPU time the process has used so far, or
// -1 if the system does not report it.
func userSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return -1
	}
	return float64(ru.Utime.Nano()) / 1e9
}
