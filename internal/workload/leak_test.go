package workload

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sensjoin/internal/core"
	"sensjoin/internal/topology"
)

// collected reports whether the finalizer armed by calibrateAndDrop ran:
// a few GC cycles, since finalizers run on their own goroutine after the
// cycle that finds the object unreachable.
func collected(flag *atomic.Bool) bool {
	for i := 0; i < 20 && !flag.Load(); i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	return flag.Load()
}

// calibrateAndDrop builds a runner, calibrates on it (filling every
// calibration memo), arms a finalizer on its deployment and lets go of
// everything. It must not be inlined into the caller, or the runner
// could stay live in the caller's frame.
//
//go:noinline
func calibrateAndDrop(t *testing.T, cfg core.SetupConfig) *atomic.Bool {
	r, err := core.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	Calibrate(r, Ratio33(), 0.05)
	Calibrate(r, Ratio60(), 0.05)
	gone := new(atomic.Bool)
	runtime.SetFinalizer(r.Dep, func(*topology.Deployment) { gone.Store(true) })
	return gone
}

// The calibration memos were package-level maps keyed by deployment and
// environment pointers: every private deployment ever calibrated stayed
// reachable for the life of the process (about 30 MB per 100k-node
// pass). They now belong to the environment, so dropping the runner
// drops them.
func TestCalibrationDoesNotRetainPrivateDeployment(t *testing.T) {
	gone := calibrateAndDrop(t, core.SetupConfig{Nodes: 300, Seed: 77, Private: true})
	if !collected(gone) {
		t.Fatal("a calibrated private runner's deployment is still reachable after the runner was dropped")
	}
}

// Shared deployments live in core's setup cache on purpose; resetting
// that cache must release them, calibrated or not.
func TestResetSetupCacheReleasesCalibratedDeployment(t *testing.T) {
	gone := calibrateAndDrop(t, core.SetupConfig{Nodes: 300, Seed: 78})
	runtime.GC()
	if gone.Load() {
		t.Fatal("a shared deployment was collected while the setup cache still holds it")
	}
	core.ResetSetupCache()
	if !collected(gone) {
		t.Fatal("a calibrated shared deployment is still reachable after core.ResetSetupCache")
	}
}

// Calibration from many goroutines over one shared runner (the
// experiment fan-out does this): one answer, no race.
func TestCalibrateConcurrent(t *testing.T) {
	r := runner(t, 300)
	wantDelta, wantFrac := Calibrate(runner(t, 300), Ratio33(), 0.05)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if d, f := Calibrate(r, Ratio33(), 0.05); d != wantDelta || f != wantFrac {
				t.Errorf("Calibrate = (%v, %v), want (%v, %v)", d, f, wantDelta, wantFrac)
			}
		}()
	}
	wg.Wait()
}

// A calibration outlives the environment's snapshot ring: executions at
// other instants between two Calibrate calls must not discard the sorted
// readings or the search results.
func TestCalibrationSurvivesSnapshotTraffic(t *testing.T) {
	r := runner(t, 300)
	before := sortedTemps(r)
	wantDelta, wantFrac := Calibrate(r, Ratio33(), 0.05)
	for i := 1; i <= 16; i++ {
		r.Env.Snapshot(r.Dep.Pos, float64(i)).Column("temp")
	}
	if after := sortedTemps(r); &after[0] != &before[0] {
		t.Fatal("the sorted readings were recomputed after snapshot traffic")
	}
	if d, f := Calibrate(r, Ratio33(), 0.05); d != wantDelta || f != wantFrac {
		t.Fatalf("Calibrate = (%v, %v), want (%v, %v)", d, f, wantDelta, wantFrac)
	}
}
