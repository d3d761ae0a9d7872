package main

import (
	"container/heap"
	"runtime"
	"time"
)

// calibRef is about the median time calibrate took over an afternoon of
// runs on the host the bounds were set on, a shared 2-vCPU Xeon virtual
// machine. The end-to-end times are scaled by calibRef over the run's median
// calibration time, so they read as seconds on that host at that speed.
const calibRef = 0.05

// calibEvery is how often a run times the calibration kernel. Samples
// spread evenly over the run follow the host's speed through it; one
// sample per iteration was too few, and the calibration's own noise then
// widened the spread it was meant to narrow.
const calibEvery = 500 * time.Millisecond

// calibrator samples the kernel between worlds, at most once per
// calibEvery.
type calibrator struct {
	samples []float64 // seconds
	last    time.Time
}

// between times the kernel if calibEvery has passed since the last sample,
// and returns how long that took, collection included.
func (c *calibrator) between() time.Duration {
	if !c.last.IsZero() && time.Since(c.last) < calibEvery {
		return 0
	}
	start := time.Now()
	c.samples = append(c.samples, calibrate())
	c.last = time.Now()
	return c.last.Sub(start)
}

// scale is the factor that turns this run's times into times at the
// reference speed.
func (c *calibrator) scale() float64 {
	return calibRef / median(c.samples)
}

// calibrate times a fixed kernel that uses none of the simulator's code and
// returns its wall time in seconds. The kernel does the three kinds of work
// the simulator spends its time on: an event queue (container/heap), a map
// keyed by ids, and a walk over heap objects linked in random order, with
// working sets larger than a core's L2 cache. Its inputs come from a
// fixed-seed generator, so its work never changes; what changes its time is
// the speed the shared host gives the process at the moment, which moves the
// workload's time the same way. The heap is collected first, outside the
// timer, so the simulator's garbage does not bill the kernel.
func calibrate() float64 {
	runtime.GC()
	start := time.Now()
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	var sum uint64

	q := make(calibQueue, 0, 4096)
	for range 4096 {
		heap.Push(&q, next()%1e9)
	}
	for range 60_000 {
		t := heap.Pop(&q).(uint64)
		sum += t
		heap.Push(&q, t+next()%1e6)
	}

	m := make(map[uint64]uint64)
	for i := range 40_000 {
		m[next()%80_000] += uint64(i)
	}
	for range 80_000 {
		sum += m[next()%80_000]
	}

	type node struct {
		next *node
		v    uint64
	}
	nodes := make([]*node, 200_000)
	for i := range nodes {
		nodes[i] = &node{v: next()}
	}
	for i := len(nodes) - 1; i > 0; i-- {
		j := next() % uint64(i+1)
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	for i := 0; i+1 < len(nodes); i++ {
		nodes[i].next = nodes[i+1]
	}
	for range 2 {
		for n := nodes[0]; n != nil; n = n.next {
			sum += n.v
		}
	}

	elapsed := time.Since(start).Seconds()
	calibSink = sum
	return elapsed
}

// calibSink keeps the kernel's result live, so the compiler cannot drop
// its work.
var calibSink uint64

// calibQueue is a min-heap of event times.
type calibQueue []uint64

func (q calibQueue) Len() int           { return len(q) }
func (q calibQueue) Less(i, j int) bool { return q[i] < q[j] }
func (q calibQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *calibQueue) Push(v any)        { *q = append(*q, v.(uint64)) }
func (q *calibQueue) Pop() any {
	old := *q
	v := old[len(old)-1]
	*q = old[:len(old)-1]
	return v
}
