package machine

import (
	"runtime"
	"testing"
)

// TestParallelDoSingleTask pins the degenerate dispatch paths: one task
// (any GOMAXPROCS) and any task count at GOMAXPROCS=1 run inline on the
// calling goroutine with zero allocations — a restore loop over a
// 1-shard machine must not pay goroutine or WaitGroup overhead per
// call. (testing.AllocsPerRun itself pins GOMAXPROCS to 1, so the n>1
// probe exercises exactly the single-worker fallback.)
func TestParallelDoSingleTask(t *testing.T) {
	ran := 0
	fn := func(int) { ran++ }
	if avg := testing.AllocsPerRun(100, func() { parallelDo(1, fn) }); avg != 0 {
		t.Fatalf("parallelDo(1, fn) allocates %.1f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { parallelDo(8, fn) }); avg != 0 {
		t.Fatalf("parallelDo(8, fn) at GOMAXPROCS=1 allocates %.1f allocs/op, want 0", avg)
	}
	if ran == 0 {
		t.Fatal("tasks never ran")
	}
	// The in-order probe needs the single-worker fallback, so pin the
	// width: at GOMAXPROCS >= 2 the tasks run on worker goroutines.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var got []int
	parallelDo(3, func(i int) { got = append(got, i) })
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("sequential fallback ran tasks %v, want [0 1 2]", got)
	}
}

// TestParallelDoRunsEveryTask checks the worker path: at a width of at
// least 2, every task runs exactly once. Each task writes only its own
// index, so the check itself is race-free.
func TestParallelDoRunsEveryTask(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	for _, n := range []int{2, 3, 17} {
		runs := make([]int, n)
		parallelDo(n, func(i int) { runs[i]++ })
		for i, r := range runs {
			if r != 1 {
				t.Fatalf("parallelDo(%d): task %d ran %d times, want 1", n, i, r)
			}
		}
	}
}
