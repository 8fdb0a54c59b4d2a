package wolfsync

import (
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
)

// Call-site capture. Site strings follow the repo-wide "file:line"
// convention (basename only — module paths would bloat the string
// table and leak build layout into fingerprints). Resolution through
// runtime.CallersFrames is paid once per program counter: resolved
// sites are interned in a process-wide cache, so the steady-state cost
// is one runtime.Callers (about 0.3 µs, half a recorded Lock+Unlock)
// plus one lock-free map lookup. Interning also means every tuple
// recorded from the same source line shares one string, which is what
// keeps held-set stacks cheap and lets the WTRC string table collapse
// them to a single entry.
var siteCache sync.Map // map[uintptr]string

// siteFor resolves and interns one call-site program counter.
func siteFor(pc uintptr) string {
	if v, ok := siteCache.Load(pc); ok {
		return v.(string)
	}
	frames := runtime.CallersFrames([]uintptr{pc})
	f, _ := frames.Next()
	s := "unknown"
	if f.File != "" {
		s = filepath.Base(f.File) + ":" + strconv.Itoa(f.Line)
	}
	siteCache.Store(pc, s)
	return s
}

// callSite captures the caller of the exported Mutex method: skip
// runtime.Callers, callSite and the method itself.
func callSite() string {
	var pcs [1]uintptr
	if runtime.Callers(3, pcs[:]) == 0 {
		return "unknown"
	}
	return siteFor(pcs[0])
}
