package main

import (
	"syscall"
	"unsafe"
)

// The reference computation. The host's speed changes over minutes
// (other guests share its cores and memory), by more than a run can
// average out, and it changes every workload alike. A run therefore
// times this fixed computation before its set-ups and before each
// round, and scales its CPU times by refNominal over the median of
// those timings: the end-to-end times are CPU seconds at the speed the
// host had when refNominal was measured. The computation shares no
// code with the program, so a change to the program cannot move it.
//
// It mimics the simulator's mix: a dependent walk through a 16 MB
// permutation (cache and TLB misses, like a machine's line tables),
// hashed updates of a 512 KB table (like its directories and
// signatures) and data-dependent branches. It runs on one goroutine,
// as the workloads' single worker does. Its memory is mapped outside
// the Go heap, so that it neither counts in retained_mb nor moves the
// collector's pacing of the program's heap.
type reference struct {
	next  []uint32
	table []uint64
	sink  uint64
}

// refNominal is the reference computation's CPU time in seconds on the
// host the bounds were measured on, when they were measured.
const refNominal = 0.37

const (
	refWalk  = 1 << 22 // permutation entries (16 MB)
	refTable = 1 << 16 // table entries (512 KB)
	refSteps = 2_000_000
)

func newReference() *reference {
	r := &reference{next: offHeap[uint32](refWalk), table: offHeap[uint64](refTable)}
	for i := range r.next {
		r.next[i] = uint32(i)
	}
	// Sattolo's algorithm: one cycle through every entry.
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(r.next) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		r.next[i], r.next[j] = r.next[j], r.next[i]
	}
	return r
}

// time runs the computation once and returns its CPU time in seconds.
func (r *reference) time() float64 {
	start := cpuTime()
	p, acc := uint32(0), uint64(1)
	for k := 0; k < refSteps; k++ {
		p = r.next[p]
		h := (uint64(p) * 0x9e3779b97f4a7c15) >> 48
		if p&3 == 0 {
			r.table[h] += acc
		} else {
			acc ^= r.table[h] + uint64(p)
		}
	}
	r.sink += acc
	return (cpuTime() - start).Seconds()
}

// offHeap returns a zeroed slice of n elements in anonymous memory
// mapped outside the Go heap. It is never unmapped: a run builds one
// reference computation and exits.
func offHeap[T any](n int) []T {
	var zero T
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)), syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		fatalf("mapping the reference computation's memory: %v", err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}
