//go:build !unix

package benchreg

// userSeconds reports no user CPU time where getrusage does not exist.
func userSeconds() float64 { return -1 }
