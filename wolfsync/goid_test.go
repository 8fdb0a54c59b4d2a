package wolfsync

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// TestGoidMatchesStackParse checks the fast identity against the
// runtime.Stack parse on 64 goroutines alive at once, all started after
// init calibrated the offset: half with plain go statements, half with
// Go.
func TestGoidMatchesStackParse(t *testing.T) {
	if (runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64") && goidOffset.Load() == 0 {
		t.Fatalf("calibration failed on %s; goid parses runtime.Stack", runtime.GOARCH)
	}
	const n = 64
	type ids struct{ fast, parsed uint64 }
	got := make([]ids, n)
	var sampled, release sync.WaitGroup
	sampled.Add(n)
	release.Add(1)
	for i := range n {
		body := func() {
			got[i] = ids{goid(), parseGoid()}
			sampled.Done()
			release.Wait()
		}
		if i%2 == 0 {
			go body()
		} else {
			Go("goid", body)
		}
	}
	sampled.Wait()
	release.Done()
	seen := make(map[uint64]bool, n)
	for i, id := range got {
		if id.fast != id.parsed {
			t.Errorf("goroutine %d: goid() = %d, stack parse = %d", i, id.fast, id.parsed)
		}
		if seen[id.fast] {
			t.Errorf("goroutine %d: goid %d shared by two live goroutines", i, id.fast)
		}
		seen[id.fast] = true
	}
}

// fakeG is a stand-in g for calibration tables: goidScan bytes whose
// words the test sets by hand.
type fakeG [goidScan / 8]uint64

func (g *fakeG) sample(id uint64) goidSample {
	return goidSample{g: unsafe.Pointer(g), id: id}
}

// TestGoidCalibrationFallback feeds calibrate tables it must refuse,
// then installs a refused result and checks goid falls back to the
// stack parse.
func TestGoidCalibrationFallback(t *testing.T) {
	var a, b fakeG
	a[5], b[5] = 7, 9
	if off := calibrate([]goidSample{a.sample(7), b.sample(9)}, goidScan); off != 5*8 {
		t.Fatalf("one agreeing offset: calibrate = %d, want 40", off)
	}

	var none1, none2 fakeG
	none1[3], none2[4] = 7, 9
	var amb1, amb2 fakeG
	amb1[3], amb2[3] = 7, 9
	amb1[6], amb2[6] = 7, 9
	var dup1, dup2 fakeG
	dup1[2], dup2[2] = 7, 7
	for _, tc := range []struct {
		name    string
		samples []goidSample
	}{
		{"no agreeing offset", []goidSample{none1.sample(7), none2.sample(9)}},
		{"two agreeing offsets", []goidSample{amb1.sample(7), amb2.sample(9)}},
		{"duplicate ids", []goidSample{dup1.sample(7), dup2.sample(7)}},
		{"one sample", []goidSample{a.sample(7)}},
		{"no stub", []goidSample{{nil, 7}, {nil, 9}}},
	} {
		if off := calibrate(tc.samples, goidScan); off != 0 {
			t.Errorf("%s: calibrate accepted offset %d", tc.name, off)
		}
	}

	defer goidOffset.Store(goidOffset.Load())
	goidOffset.Store(calibrate([]goidSample{none1.sample(7), none2.sample(9)}, goidScan))
	if off := goidOffset.Load(); off != 0 {
		t.Fatalf("refused calibration installed offset %d", off)
	}
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, want := goid(), parseGoid(); got != want {
				t.Errorf("fallback goid() = %d, stack parse = %d", got, want)
			}
		}()
	}
	wg.Wait()
}
