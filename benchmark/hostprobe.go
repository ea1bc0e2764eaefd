package main

import (
	"bytes"
	"compress/flate"
	"context"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host the benchmark shares runs other tenants' work, and the
// simulator's speed on it moves by a quarter and more between phases
// that last seconds to minutes. A wall-clock figure then says as much
// about the neighbours as about the code. The host probe measures those
// phases as the run goes: it runs a fixed burst of work — written here
// and in the standard library, so no change to the repository's code
// can move it — and records the thread CPU time each burst took (see
// probeKernel). The sim loops run a burst between simulations,
// on the thread that simulates; the sweep-service window, whose load
// keeps every CPU busy, has a goroutine run one every probeInterval.
// Every host-time metric is reported at reference-host speed: a time is
// multiplied by hostSpeed over the interval it was measured in, a rate
// divided by it. The bursts are timed in CPU time, which leaves out
// steal time, so the times they scale leave it out too: a simulation's
// is process CPU time, and a wall time is cut by the share the VM lost
// to steal (stealMeter). The notes print the figures as measured.

const (
	probeInterval = 100 * time.Millisecond

	// probeRefBurst is the median burst time on the reference host, the
	// 2-vCPU VM the baseline in README.md was measured on.
	probeRefBurst = 6400 * time.Microsecond
)

// probeSample is one burst: when it ended and the thread CPU time it
// took.
type probeSample struct {
	at    time.Time
	burst time.Duration
}

// hostProbe holds the probe's kernel and the bursts it has run.
type hostProbe struct {
	mu      sync.Mutex // held for a whole burst: the kernel is not shared
	k       *probeKernel
	samples []probeSample
}

func newHostProbe() *hostProbe {
	p := &hostProbe{k: newProbeKernel()}
	p.k.burst() // fault its tables in before the first sample
	return p
}

// probeLabel marks the bursts' CPU-profile samples, so the ledger,
// which charges only samples labelled bench=run, leaves them out. Bursts
// run on the benchmark's goroutines, which carry the run label;
// pprof.Do puts back the labels of the context it is given when it
// returns, so that context carries the run label.
var (
	probeLabel = pprof.Labels("bench", "probe")
	runCtx     = pprof.WithLabels(context.Background(), runLabel)
)

// sample runs one burst on the calling goroutine and records its
// thread CPU time.
func (p *hostProbe) sample() {
	runtime.LockOSThread() // thread CPU time is per OS thread
	defer runtime.UnlockOSThread()
	p.mu.Lock()
	defer p.mu.Unlock()
	var burst time.Duration
	pprof.Do(runCtx, probeLabel, func(context.Context) {
		c0 := threadCPU()
		p.k.burst()
		burst = threadCPU() - c0
	})
	p.samples = append(p.samples, probeSample{at: time.Now(), burst: burst})
}

// maybeSample runs a burst if none has ended in the last probeInterval,
// so a loop of short steps spends a bounded share of its time probing.
func (p *hostProbe) maybeSample() {
	p.mu.Lock()
	due := len(p.samples) == 0 || time.Since(p.samples[len(p.samples)-1].at) >= probeInterval
	p.mu.Unlock()
	if due {
		p.sample()
	}
}

// background runs a burst every probeInterval on its own goroutine
// until the returned function is called; that function waits for the
// goroutine to exit.
func (p *hostProbe) background() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(probeInterval)
		defer tick.Stop()
		for {
			p.sample()
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// over returns the samples taken in [from, to]. An interval too short
// to hold three gets the three samples nearest its middle instead.
func (p *hostProbe) over(from, to time.Time) []probeSample {
	p.mu.Lock()
	all := slices.Clone(p.samples)
	p.mu.Unlock()
	var in []probeSample
	for _, s := range all {
		if !s.at.Before(from) && !s.at.After(to) {
			in = append(in, s)
		}
	}
	if len(in) >= 3 || len(all) <= len(in) {
		return in
	}
	mid := from.Add(to.Sub(from) / 2)
	dist := func(s probeSample) time.Duration { return max(s.at.Sub(mid), mid.Sub(s.at)) }
	slices.SortFunc(all, func(a, b probeSample) int { return int(dist(a) - dist(b)) })
	return all[:min(3, len(all))]
}

// hostSpeed returns the host's speed over [from, to] relative to the
// reference host: the reference burst time over the median burst time
// there. It is below 1 on a slower host.
func (p *hostProbe) hostSpeed(from, to time.Time) float64 {
	s := p.over(from, to)
	bursts := make([]time.Duration, len(s))
	for i := range s {
		bursts[i] = s[i].burst
	}
	med := percentile(bursts, 50)
	if med <= 0 {
		return 1
	}
	return float64(probeRefBurst) / float64(med)
}

// probeKernel is the probe's fixed work, three parts of the kinds the
// simulator does: a cache model (a 16-way LRU cache of 8192 sets in
// front of a direct-mapped one of 2^20 lines, fed by a stream that is
// sequential three times in four), DEFLATE of a fixed buffer (hashing,
// table lookups, branches on data) and churn in a Go map. Each part
// alone follows the host's slow phases only in part; together they
// follow them more closely.
type probeKernel struct {
	tags   []uint64
	age    []uint8
	direct []uint64
	x      uint64 // the cache stream's xorshift state
	addr   uint64 // the cache stream's last address
	text   []byte
	packed bytes.Buffer
	zw     *flate.Writer
	counts map[uint64]uint64
	sink   uint64
}

const (
	probeAccesses = 10_000   // cache-model accesses per burst
	probeText     = 64 << 10 // bytes compressed per burst
	probeMapOps   = 30_000   // map updates per burst
)

func newProbeKernel() *probeKernel {
	k := &probeKernel{
		tags:   make([]uint64, 8192*16),
		age:    make([]uint8, 8192*16),
		direct: make([]uint64, 1<<20),
		x:      88172645463325252,
		text:   make([]byte, probeText),
		counts: make(map[uint64]uint64, 1<<16),
	}
	// Text over a 16-letter alphabet with frequent repeats, so DEFLATE
	// finds matches as it would in real data.
	x := uint64(1)
	for i := range k.text {
		x = xorshift(x)
		k.text[i] = "abcdefghijklmnop"[x%16]
		if x%7 == 0 && i >= 64 {
			copy(k.text[i:], k.text[i-64:i-32])
		}
	}
	k.zw, _ = flate.NewWriter(&k.packed, flate.DefaultCompression) // the level is valid
	return k
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// burst runs each part once. The cache stream continues across bursts;
// the other parts repeat the same work.
func (k *probeKernel) burst() {
	x, addr := k.x, k.addr
	for i := 0; i < probeAccesses; i++ {
		x = xorshift(x)
		if x&3 == 0 {
			addr = (x >> 8) & (1<<28 - 1)
		} else {
			addr += 64
		}
		line := addr >> 6
		base := int(line&8191) * 16
		hit := false
		for w := base; w < base+16; w++ {
			if k.tags[w] == line {
				hit, k.age[w] = true, 0
			} else if k.age[w] < 255 {
				k.age[w]++
			}
		}
		if hit {
			k.sink++
			continue
		}
		victim := base
		for w := base + 1; w < base+16; w++ {
			if k.age[w] > k.age[victim] {
				victim = w
			}
		}
		k.tags[victim], k.age[victim] = line, 0
		if j := line & (1<<20 - 1); k.direct[j] == line {
			k.sink++
		} else {
			k.direct[j] = line
		}
	}
	k.x, k.addr = x, addr

	k.packed.Reset()
	k.zw.Reset(&k.packed)
	k.zw.Write(k.text) // writes to a bytes.Buffer cannot fail
	k.zw.Close()
	k.sink += uint64(k.packed.Len())

	clear(k.counts)
	y := uint64(9)
	for i := 0; i < probeMapOps; i++ {
		y = xorshift(y)
		k.counts[y&0xffff] += y
	}
	k.sink += uint64(len(k.counts))
}

// Linux's CPU-time clocks: CLOCK_PROCESS_CPUTIME_ID counts every thread
// of the process, the GC's workers included, and CLOCK_THREAD_CPUTIME_ID
// the calling thread. Unlike getrusage, whose per-thread figures move in
// scheduler ticks, they count in nanoseconds. Neither counts time the
// hypervisor gave the VM's CPU to someone else (steal time): this
// kernel accounts it apart.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

// processCPU returns the CPU time the process has used.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTime) }

// threadCPU returns the CPU time the calling OS thread has used.
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTime) }

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// vmTimes are the VM's CPU times from the first line of /proc/stat, in
// clock ticks summed over its CPUs: time spent running anything, and
// steal time, when a CPU wanted to run but the hypervisor ran another
// tenant instead.
type vmTimes struct{ busy, steal uint64 }

// readVMTimes reads them; ok is false where /proc/stat has no steal
// column.
func readVMTimes() (t vmTimes, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return t, false
	}
	var v [8]uint64 // user nice system idle iowait irq softirq steal
	for i := range v {
		if v[i], err = strconv.ParseUint(f[i+1], 10, 64); err != nil {
			return t, false
		}
	}
	return vmTimes{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}, true
}

// stealMeter measures, from a starting point, the share of the CPU time
// the VM wanted that it got. A program that keeps one CPU or all of them
// busy for a wall time w got that share of the CPU time it wanted, so
// w times the share is the time it would have taken on a host of its
// own.
type stealMeter struct {
	v0 vmTimes
	ok bool
}

func startSteal() stealMeter {
	v, ok := readVMTimes()
	return stealMeter{v0: v, ok: ok}
}

// unstolen returns busy/(busy + steal) since the meter started, or 1
// where /proc/stat has no steal column or nothing ran.
func (m stealMeter) unstolen() float64 {
	v, ok := readVMTimes()
	if !ok || !m.ok {
		return 1
	}
	busy, steal := v.busy-m.v0.busy, v.steal-m.v0.steal
	if busy+steal == 0 {
		return 1
	}
	return float64(busy) / float64(busy+steal)
}
