package main

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// The closed loop: clients keep-alive connections, each sending its
// next request only when the previous response has been read and
// checked. Operations are numbered; operation i is round i/roundLen,
// slot i%roundLen. A phase stops only at a round boundary, so every
// phase attempts whole rounds of the same operations.

const clients = 2

// exchangeSpan is one traced exchange: the claim of the operation,
// start of the request write, end of the write, first response byte,
// last body byte and end of the check (nanoseconds since the loop's
// epoch).
type exchangeSpan struct {
	id                     int64
	tc, t0, t1, t2, t3, t4 int64
}

// phaseResult is what one phase measured, summed over its connections.
type phaseResult struct {
	ops, failed int64
	bodyBytes   int64
	elapsed     time.Duration
	lat         hist
	slices      []slice // the phase's whole slices, in order
	spans       []exchangeSpan
	samples     []int64 // latencies (ns), trace runs only
	heads       [][]byte
	firstErr    error
}

// slice is what completed within one sliceLen of a phase.
type slice struct {
	ops, bodyBytes int64
	lat            *hist
	serverUs       int64 // the server's CPU time over the slice
}

// sliceLen is the time resolution of the phase figures: a run reports
// the median over its slices, so a burst of interference from outside
// the benchmark moves one slice, not the result.
const sliceLen = time.Second

func (p *phaseResult) add(o *phaseResult) {
	p.ops += o.ops
	p.failed += o.failed
	p.bodyBytes += o.bodyBytes
	p.lat.merge(&o.lat)
	for i := range o.slices {
		if i == len(p.slices) {
			p.slices = append(p.slices, slice{lat: &hist{}})
		}
		p.slices[i].ops += o.slices[i].ops
		p.slices[i].bodyBytes += o.slices[i].bodyBytes
		p.slices[i].lat.merge(o.slices[i].lat)
	}
	p.spans = append(p.spans, o.spans...)
	p.samples = append(p.samples, o.samples...)
	p.heads = append(p.heads, o.heads...)
	if p.firstErr == nil {
		p.firstErr = o.firstErr
	}
}

// clientConn is one keep-alive connection and its reader.
type clientConn struct {
	addr string
	nc   net.Conn
	rr   *respReader
}

func dial(addr string) (*clientConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &clientConn{addr: addr, nc: nc, rr: newRespReader(nc)}, nil
}

func (c *clientConn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

// exchange sends one request and reads and checks its response. On an
// I/O or framing error the connection is replaced, since its stream
// position is lost.
func (c *clientConn) exchange(seed uint64, op *opSpec, resp *response) (t [5]time.Time, err error) {
	if c.nc == nil {
		nc, derr := net.Dial("tcp", c.addr)
		if derr != nil {
			return t, derr
		}
		c.nc, c.rr = nc, newRespReader(nc)
	}
	t[0] = time.Now()
	if _, err = c.nc.Write(op.req); err != nil {
		c.close()
		return t, err
	}
	t[1] = time.Now()
	if err = c.rr.read(resp); err != nil {
		c.close()
		return t, err
	}
	t[3] = time.Now()
	t[2] = resp.firstByte
	err = check(seed, &op.exp, resp)
	t[4] = time.Now()
	if err != nil && resp.close {
		c.close()
	}
	return t, err
}

// closedLoop runs phases of the closed loop over a workload's operations.
type closedLoop struct {
	seed     uint64
	roundLen int64
	op       func(i int64) opSpec
	conns    []*clientConn
	epoch    time.Time // origin of span times

	// tick, when set, is called at the start of the phase and at the
	// end of each whole slice, with the slice boundary's index.
	tick func(k int)

	mu       sync.Mutex
	next     int64
	stopped  bool
	deadline time.Time
}

// claim hands out the next operation, or reports that the phase is
// over: the deadline has passed and the next operation would open a
// new round.
func (d *closedLoop) claim(now time.Time) (int64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped {
		return 0, false
	}
	if d.next%d.roundLen == 0 && !now.Before(d.deadline) {
		d.stopped = true
		return 0, false
	}
	i := d.next
	d.next++
	return i, true
}

// run runs whole rounds until d elapses. With trace set it keeps a span
// per exchange, the raw latencies and a sample of response heads.
func (d *closedLoop) run(dur time.Duration, trace bool) *phaseResult {
	start := time.Now()
	d.mu.Lock()
	d.stopped, d.deadline = false, start.Add(dur)
	d.mu.Unlock()
	parts := make([]*phaseResult, len(d.conns))
	nslices := int(dur / sliceLen)
	var wg sync.WaitGroup
	for ci, c := range d.conns {
		parts[ci] = &phaseResult{}
		for k := 0; k < nslices; k++ {
			parts[ci].slices = append(parts[ci].slices, slice{lat: &hist{}})
		}
		wg.Add(1)
		go func(c *clientConn, res *phaseResult) {
			defer wg.Done()
			var resp response
			now := time.Now()
			for {
				tc := now
				i, ok := d.claim(now)
				if !ok {
					return
				}
				op := d.op(i)
				t, err := c.exchange(d.seed, &op, &resp)
				now = time.Now()
				res.ops++
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = fmt.Errorf("op %d %q: %w", i, firstLine(op.req), err)
					}
					continue
				}
				lat := t[3].Sub(t[0]).Nanoseconds()
				res.lat.observe(lat)
				res.bodyBytes += int64(len(resp.body))
				if k := int(t[3].Sub(start) / sliceLen); k < nslices {
					sl := &res.slices[k]
					sl.ops++
					sl.bodyBytes += int64(len(resp.body))
					sl.lat.observe(lat)
				}
				if trace {
					if len(res.spans) < maxSpans {
						ns := func(x time.Time) int64 { return x.Sub(d.epoch).Nanoseconds() }
						res.spans = append(res.spans, exchangeSpan{i, ns(tc), ns(t[0]), ns(t[1]), ns(t[2]), ns(t[3]), ns(t[4])})
						res.samples = append(res.samples, lat)
					}
					if len(res.heads) < maxHeads {
						res.heads = append(res.heads, append([]byte(nil), resp.head...))
					}
				}
			}
		}(c, parts[ci])
	}
	if d.tick != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k <= nslices; k++ {
				time.Sleep(time.Until(start.Add(time.Duration(k) * sliceLen)))
				d.tick(k)
			}
		}()
	}
	wg.Wait()
	out := &phaseResult{elapsed: time.Since(start)}
	for _, p := range parts {
		out.add(p)
	}
	return out
}

const (
	maxSpans = 1 << 18 // per connection
	maxHeads = 256
)

// runOps runs a fixed list of operations (the warm-up) split over the
// connections, and returns how many failed and the first failure.
func runOps(seed uint64, conns []*clientConn, ops []opSpec) (int64, error) {
	var wg sync.WaitGroup
	fails := make([]int64, len(conns))
	errs := make([]error, len(conns))
	for ci, c := range conns {
		wg.Add(1)
		go func(ci int, c *clientConn) {
			defer wg.Done()
			var resp response
			for i := ci; i < len(ops); i += len(conns) {
				if _, err := c.exchange(seed, &ops[i], &resp); err != nil {
					fails[ci]++
					if errs[ci] == nil {
						errs[ci] = fmt.Errorf("warm-up %q: %w", firstLine(ops[i].req), err)
					}
				}
			}
		}(ci, c)
	}
	wg.Wait()
	var n int64
	var first error
	for ci := range conns {
		n += fails[ci]
		if first == nil {
			first = errs[ci]
		}
	}
	return n, first
}

func firstLine(b []byte) string {
	for i, c := range b {
		if c == '\r' {
			return string(b[:i])
		}
	}
	return string(b)
}
