//go:build !amd64 && !arm64

package wolfsync

import "unsafe"

// getg has no stub on this architecture: calibration fails and goid
// parses runtime.Stack.
func getg() unsafe.Pointer { return nil }
