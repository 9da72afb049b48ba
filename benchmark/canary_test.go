package benchmark

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"time"
)

// This file calibrates wall-clock readings against the machine's
// current speed. On a shared host the speed of identical code drifts by
// 10-20% over minutes, longer than a run, so no statistic over one
// run's rounds can remove it. At every round barrier the benchmark
// times two fixed jobs that use no controller code (the canaries): a
// loopback TCP echo, which exercises the kernel and the scheduler like
// the daemon's transport, and a single-threaded CPU job that allocates,
// fills maps and sorts, like the controller's own work. A round's
// readings are scaled by the geometric mean of the two canaries'
// slowdowns against their reference rates. A change to the controller
// moves the calibrated readings; a change in the machine's speed moves
// the canaries and the round alike and cancels.

// The reference rates calibrated readings are scaled to: the canaries'
// typical rates on the 2-core machine the bounds were set on.
const (
	referenceEchoRate = 100_000   // echo exchanges per second
	referenceCPURate  = 6_000_000 // CPU canary steps per second
)

// cpuStepsPerExchange sizes the CPU canary against the echo canary so
// the two take similar time.
const cpuStepsPerExchange = 80

// canaryFor sizes a run's canary readings: 5,000 echo exchanges per
// connection (about 0.1 s) and 400,000 CPU steps (about 0.07 s) at a
// 25 s budget, proportionally fewer for shorter runs, and none for a
// traced run, whose profile and counters must see only the workload.
func canaryFor(opts options) int {
	if opts.trace {
		return 0
	}
	return max(10, int(200*opts.seconds))
}

// echoCanary runs a closed loop of n request/response exchanges on each
// of conns loopback TCP connections against a bare echo server, framed
// like the controller protocol, and returns exchanges per second.
func echoCanary(n int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("canary listen: %w", err)
	}
	var servers sync.WaitGroup
	defer servers.Wait()
	defer func() { _ = ln.Close() }() // runs first: no further connections
	servers.Add(1)
	go func() {
		defer servers.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			servers.Add(1)
			go func() {
				defer servers.Done()
				echo(c)
			}()
		}
	}()

	clients := make([]net.Conn, conns)
	for i := range clients {
		if clients[i], err = net.Dial("tcp", ln.Addr().String()); err != nil {
			for _, c := range clients[:i] {
				_ = c.Close()
			}
			return 0, fmt.Errorf("canary dial: %w", err)
		}
	}
	errs := make([]error, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c net.Conn) {
			defer wg.Done()
			errs[i] = ping(c, n)
		}(i, c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, c := range clients {
		_ = c.Close() // ends the echo goroutines
	}
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	return float64(conns*n) / elapsed.Seconds(), nil
}

// ping sends n frames and reads each echo before the next.
func ping(c net.Conn, n int) error {
	frame := binary.LittleEndian.AppendUint32(nil, 40)
	frame = append(frame, make([]byte, 40)...)
	in := make([]byte, len(frame))
	for i := 0; i < n; i++ {
		if _, err := c.Write(frame); err != nil {
			return fmt.Errorf("canary write: %w", err)
		}
		if _, err := io.ReadFull(c, in[:4]); err != nil {
			return fmt.Errorf("canary read: %w", err)
		}
		if _, err := io.ReadFull(c, in[4:]); err != nil {
			return fmt.Errorf("canary read: %w", err)
		}
	}
	return nil
}

// echo answers frames on c until the peer closes it.
func echo(c net.Conn) {
	defer func() { _ = c.Close() }()
	buf := make([]byte, 4+64)
	for {
		if _, err := io.ReadFull(c, buf[:4]); err != nil {
			return
		}
		n := int(binary.LittleEndian.Uint32(buf[:4]))
		if n > len(buf)-4 {
			return
		}
		if _, err := io.ReadFull(c, buf[4:4+n]); err != nil {
			return
		}
		if _, err := c.Write(buf[:4+n]); err != nil {
			return
		}
	}
}

// cpuChunk is how many steps of the CPU canary share one map and one
// sorted slice.
const cpuChunk = 20_000

// cpuCanary runs steps steps of a single-threaded job that grows a
// slice, updates a map and sorts the slice in chunks of cpuChunk steps,
// and returns steps per second.
func cpuCanary(steps int) float64 {
	start := time.Now()
	x := uint32(12345)
	for done := 0; done < steps; {
		n := min(cpuChunk, steps-done)
		m := make(map[uint32]int)
		xs := make([]uint32, 0, 1024)
		for i := 0; i < n; i++ {
			x = x*1103515245 + 12345
			m[x&0xffff] += i
			xs = append(xs, x&0xfffff)
		}
		slices.Sort(xs)
		sink += len(m) + int(xs[0])
		done += n
	}
	return float64(steps) / time.Since(start).Seconds()
}

// canaryReading is one reading of both canaries, as rates.
type canaryReading struct{ echo, cpu float64 }

// calibration holds the canary readings taken at a run's round
// barriers: readings[r] before round r, and one after the last round.
type calibration struct {
	readings []canaryReading
	n        int // echo exchanges per connection per reading
}

// read takes one reading of both canaries.
func (c *calibration) read() error {
	echo, err := echoCanary(c.n)
	if err != nil {
		return err
	}
	c.readings = append(c.readings, canaryReading{echo: echo, cpu: cpuCanary(cpuStepsPerExchange * c.n)})
	return nil
}

// slowdown is how much slower than the reference the machine ran
// during round r: for each canary, the mean of the readings that
// bracket the round against its reference rate, and the geometric mean
// of the two. A duration divided by it, or a rate multiplied by it, is
// the calibrated reading.
func (c *calibration) slowdown(r int) float64 {
	a, b := c.readings[r], c.readings[r+1]
	echo := referenceEchoRate / ((a.echo + b.echo) / 2)
	cpu := referenceCPURate / ((a.cpu + b.cpu) / 2)
	return math.Sqrt(echo * cpu)
}

// rate is a run's throughput: the timed rounds' work over their total
// wall time, each round's time calibrated when c holds readings. Timed
// round i, with work[i] and elapsed[i], is round i+1 of the run.
func (c *calibration) rate(work []int, elapsed []time.Duration) float64 {
	total, wall := 0, 0.0
	for i, d := range elapsed {
		k := 1.0
		if len(c.readings) > 0 {
			k = c.slowdown(i + 1)
		}
		total += work[i]
		wall += d.Seconds() / k
	}
	return float64(total) / wall
}

// setupSamples is how many set-up samples a run takes at each round
// barrier. A set-up takes well under a millisecond, so a few hundred
// samples cost almost nothing and steady the median.
const setupSamples = 10

// sampleSetup times setupSamples calls of boot, in seconds. The
// teardown boot returns, if any, runs untimed after each sample.
func sampleSetup(boot func() (teardown func() error, err error)) ([]float64, error) {
	s := make([]float64, 0, setupSamples)
	for i := 0; i < setupSamples; i++ {
		start := time.Now()
		teardown, err := boot()
		if err != nil {
			return nil, err
		}
		s = append(s, time.Since(start).Seconds())
		if teardown != nil {
			if err := teardown(); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// setupSeconds is the median of the set-up samples, each calibrated by
// the canary readings around the barrier it was taken at: samples[r]
// were taken just before readings[r].
func (c *calibration) setupSeconds(samples [][]float64) float64 {
	var s []float64
	for r, barrier := range samples {
		for _, v := range barrier {
			s = append(s, v/c.slowdown(r))
		}
	}
	return median(s)
}

// emitCanary takes one reading of each canary after a traced run, so
// its uncalibrated figures can be read against the machine's speed.
func emitCanary(rep *report, opts options) error {
	n := canaryFor(options{seconds: opts.seconds})
	echo, err := echoCanary(n)
	if err != nil {
		return err
	}
	rep.set("calib.echo_per_s", echo, "1/s")
	rep.set("calib.cpu_per_s", cpuCanary(cpuStepsPerExchange*n), "1/s")
	return nil
}
