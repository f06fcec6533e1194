package scenario

import (
	"reflect"
	"runtime"
	"testing"
)

// TestSweepsParallelMatchSerial pins the scenario layer's worker-count
// contract end to end: the saturation and trace-replay sweeps produce
// byte-identical reports at GOMAXPROCS=1 (one run at a time) and on a
// four-worker pool — the same equivalence the pdes-smoke CI job checks
// on the full artifacts.
func TestSweepsParallelMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("four full sweeps")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	satSerial, err := SaturationSubset([]int{64})
	if err != nil {
		t.Fatalf("serial saturation: %v", err)
	}
	trSerial, err := TraceReplay()
	if err != nil {
		t.Fatalf("serial trace-replay: %v", err)
	}

	runtime.GOMAXPROCS(4)
	satParallel, err := SaturationSubset([]int{64})
	if err != nil {
		t.Fatalf("parallel saturation: %v", err)
	}
	trParallel, err := TraceReplay()
	if err != nil {
		t.Fatalf("parallel trace-replay: %v", err)
	}

	if !reflect.DeepEqual(satSerial, satParallel) {
		t.Errorf("saturation sweep differs between serial and 4 workers\nserial:   %+v\nparallel: %+v",
			satSerial, satParallel)
	}
	if !reflect.DeepEqual(trSerial, trParallel) {
		t.Errorf("trace-replay sweep differs between serial and 4 workers\nserial:   %+v\nparallel: %+v",
			trSerial, trParallel)
	}
}
