package wolfsync

import "wolf/internal/trace"

// WithHTTPClient exposes the streaming sink's HTTP-client override to
// the external test package (sink_test.go lives there to break the
// wolfsync → server → workloads → wolfsync test-import cycle).
var WithHTTPClient = withHTTPClient

// snapshot returns the trace recorded so far, panicking if it does not
// assemble.
func (r *Recorder) snapshot() *trace.Trace {
	tr, _, err := r.snapshotN()
	if err != nil {
		panic(err)
	}
	return tr
}
