package wolfsync

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Goroutine identity. The runtime exposes no goroutine ID, so wolfsync
// finds it two ways:
//
//   - Fast: getg (a one-instruction assembly stub, amd64 and arm64)
//     returns the runtime's current g, and the ID is the uint64 at
//     goidOffset inside it — about 4 ns.
//   - Parse: parseGoid reads the "goroutine N [running]:" header of a
//     runtime.Stack dump — 3 to 5 µs.
//
// The offset is not hard-coded: init calibrates it against the parse
// (calibrate) and accepts it only when exactly one offset agrees for
// every sampled goroutine. Otherwise, and on architectures without a
// stub, goid falls back to the parse. State is keyed by the ID, never
// by the g pointer: the runtime reuses gs for new goroutines.

// goidOffset is the byte offset of the goroutine ID inside the
// runtime's g, or 0 when no offset was accepted. g begins with its
// stack bounds, so the ID is never at offset 0.
var goidOffset atomic.Uintptr

// goidScan bounds the offsets calibrate tries. The ID sits well inside
// g's first 256 bytes, and g is larger than that, so every read stays
// inside the g object.
const goidScan = 256

// calibrationGoroutines is how many goroutines besides the caller
// init samples.
const calibrationGoroutines = 8

func init() { goidOffset.Store(calibrateRuntime()) }

// goid returns the runtime's ID for the calling goroutine.
func goid() uint64 {
	if off := goidOffset.Load(); off != 0 {
		return *(*uint64)(unsafe.Add(getg(), off))
	}
	return parseGoid()
}

// parseGoid extracts the calling goroutine's ID from the first line of
// its stack trace ("goroutine N [running]: ..."). It is the fallback
// for goid and the oracle calibrate checks offsets against.
func parseGoid() uint64 {
	var b [64]byte
	n := runtime.Stack(b[:], false)
	const prefix = len("goroutine ")
	var id uint64
	for i := prefix; i < n && b[i] >= '0' && b[i] <= '9'; i++ {
		id = id*10 + uint64(b[i]-'0')
	}
	return id
}

// goidSample pairs one goroutine's g with its parsed ID.
type goidSample struct {
	g  unsafe.Pointer
	id uint64
}

// calibrate returns the one offset in [8, limit) at which every
// sample's g holds the sample's ID. It refuses, returning 0, when
// any g is nil (no stub on this architecture), when the IDs are not
// all distinct (a constant field could then pass for the ID), or when
// zero or several offsets agree.
func calibrate(samples []goidSample, limit uintptr) uintptr {
	seen := make(map[uint64]bool, len(samples))
	for _, s := range samples {
		if s.g == nil || seen[s.id] {
			return 0
		}
		seen[s.id] = true
	}
	if len(samples) < 2 {
		return 0
	}
	var found uintptr
	matches := 0
	for off := uintptr(8); off+8 <= limit; off += 8 {
		agree := true
		for _, s := range samples {
			if *(*uint64)(unsafe.Add(s.g, off)) != s.id {
				agree = false
				break
			}
		}
		if agree {
			found = off
			matches++
		}
	}
	if matches != 1 {
		return 0
	}
	return found
}

// calibrateRuntime samples the calling goroutine and
// calibrationGoroutines others, all alive at once so each has its own
// g and ID, and returns the offset calibrate accepts, or 0.
func calibrateRuntime() uintptr {
	samples := make([]goidSample, calibrationGoroutines+1)
	samples[0] = goidSample{getg(), parseGoid()}
	var sampled, release sync.WaitGroup
	sampled.Add(calibrationGoroutines)
	release.Add(1)
	for i := 1; i < len(samples); i++ {
		go func() {
			samples[i] = goidSample{getg(), parseGoid()}
			sampled.Done()
			release.Wait()
		}()
	}
	sampled.Wait()
	off := calibrate(samples, goidScan)
	release.Done()
	return off
}
