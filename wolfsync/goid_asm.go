//go:build amd64 || arm64

package wolfsync

import "unsafe"

// getg returns the runtime's g for the calling goroutine (goid_*.s).
func getg() unsafe.Pointer
