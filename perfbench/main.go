// Command perfbench is the repository's end-to-end benchmark. It
// generates a workload from a seed, runs the flash server on it in a
// child process, drives it with a closed loop of two keep-alive
// connections, checks every response byte against its own content
// function, and prints the metrics with their units. The benchmark, the
// server and the proxy workload's origin all share one CPU.
//
//	bash perfbench/run.sh --workload static_hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of a workload's output is its end-to-end
// metrics as JSON; with --trace 1 it is the per-layer metrics.
// --workload all runs every workload in turn. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// setups is how many times each run launches and warms the server; the
// last launch is measured, and setup_s is the median over all.
const setups = 21

func main() {
	var (
		root     = flag.String("root", ".", "repository checkout the run may write under")
		name     = flag.String("workload", "", "workload: static_hot, static_hot_epoll, ece_miss, proxy_mix, or all of them in turn")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "length of the timed window")
		trace    = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		serve    = flag.String("serve", "", "internal: run the server child with this JSON spec")
		isOrigin = flag.Bool("origin", false, "internal: run the origin child")
	)
	flag.Parse()
	var err error
	switch {
	case *serve != "":
		err = serveMain(*serve)
	case *isOrigin:
		err = originMain(*seed)
	default:
		names := []string{*name}
		if *name == "all" {
			names = workloadNames
		}
		if err = pinToOneCPU(); err == nil {
			for _, n := range names {
				if err = run(*root, n, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
					break
				}
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// snapshot is the state of the processes at one edge of the window.
type snapshot struct {
	srv      serverReport
	proc     procSample
	origin   originReport
	clientUs int64
}

// takeSnapshot reads the counters once the server has accounted for
// the responses the client has read (it counts a response after
// writing it, so the count can trail the client briefly).
func takeSnapshot(srv, org *child, responses uint64) (snapshot, error) {
	var s snapshot
	for tries := 0; ; tries++ {
		if err := srv.stats(&s.srv); err != nil {
			return s, fmt.Errorf("server stats: %w", err)
		}
		if s.srv.Stats.Responses >= responses || tries == 100 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	p, err := readProc(srv.pid())
	if err != nil {
		return s, err
	}
	s.proc = p
	if org != nil {
		if err := org.stats(&s.origin); err != nil {
			return s, fmt.Errorf("origin stats: %w", err)
		}
	}
	s.clientUs = cpuUs()
	return s, nil
}

func run(root, name string, seed uint64, window time.Duration, trace bool) error {
	if window <= 0 {
		return errors.New("--seconds must be positive")
	}
	epoch := time.Now()
	dir := filepath.Join(root, ".bench_build", "perfbench", "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer stopAllChildren()

	b, err := buildWorkload(name, seed, dir)
	if err != nil {
		return err
	}
	var org *child
	if b.origin {
		if org, err = startChild("-origin", "-seed", strconv.FormatUint(seed, 10)); err != nil {
			return err
		}
		b.spec.Origin = org.addr
	}
	specJSON, err := json.Marshal(b.spec)
	if err != nil {
		return err
	}

	// Launch and warm the server setups times; keep the last.
	correct := true
	var setupTimes []float64
	var srv *child
	var conns []*clientConn
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		if srv, err = startChild("-serve", string(specJSON)); err != nil {
			return err
		}
		conns = conns[:0]
		for c := 0; c < clients; c++ {
			cc, err := dial(srv.addr)
			if err != nil {
				return err
			}
			conns = append(conns, cc)
		}
		if n, err := runOps(seed, conns, b.warm); n > 0 {
			correct = false
			fmt.Fprintf(os.Stderr, "warm-up: %d failed; first: %v\n", n, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if k < setups-1 {
			for _, c := range conns {
				c.close()
			}
			if err := srv.stop(); err != nil {
				return fmt.Errorf("server exit: %w", err)
			}
		}
	}

	d := &closedLoop{seed: seed, roundLen: b.roundLen, op: b.op, conns: conns, epoch: epoch}
	stopBG := make(chan struct{})
	bgDone := make(chan struct{})
	go func() {
		defer close(bgDone)
		if b.background != nil {
			b.background(stopBG)
		}
	}()
	s := d.run(b.settle, false)
	if s.failed > 0 {
		correct = false
		fmt.Fprintf(os.Stderr, "settle: %d of %d failed; first: %v\n", s.failed, s.ops, s.firstErr)
	}
	answered := uint64(len(b.warm)) + uint64(s.ops)

	before, err := takeSnapshot(srv, org, answered)
	if err != nil {
		return err
	}
	var res *phaseResult
	var overheadPct float64
	if trace {
		// Untraced and traced phases alternate, so drift of the host's
		// speed falls on both alike; the rate the traced phases lose is
		// the tracing overhead.
		n := max(2, int(window/sliceLen))
		var plain, traced []float64
		res = &phaseResult{}
		for k := 0; k < n; k++ {
			p := d.run(window/time.Duration(n), k%2 == 1)
			rate := float64(p.ops) / p.elapsed.Seconds()
			if k%2 == 1 {
				traced = append(traced, rate)
			} else {
				plain = append(plain, rate)
			}
			res.add(p)
			res.elapsed += p.elapsed
		}
		overheadPct = (median(plain)/median(traced) - 1) * 100
	} else {
		// The server's CPU time at every slice boundary.
		cpuAt := make([]int64, int(window/sliceLen)+1)
		d.tick = func(k int) {
			if v, err := srv.cpuUs(); err == nil {
				cpuAt[k] = v
			}
		}
		res = d.run(window, false)
		d.tick = nil
		for k := range res.slices {
			res.slices[k].serverUs = cpuAt[k+1] - cpuAt[k]
		}
	}
	after, err := takeSnapshot(srv, org, answered+uint64(res.ops))
	if err != nil {
		return err
	}
	close(stopBG)
	<-bgDone

	if res.failed > 0 {
		correct = false
		fmt.Fprintf(os.Stderr, "window: %d of %d failed; first: %v\n", res.failed, res.ops, res.firstErr)
	}
	if served := after.srv.Stats.Responses; res.failed+s.failed == 0 && served != answered+uint64(res.ops) {
		correct = false
		fmt.Fprintf(os.Stderr, "server counted %d responses, the client %d\n", served, answered+uint64(res.ops))
	}

	out := result{Correct: correct, Attempted: res.ops, Failed: res.failed, Metrics: map[string]metric{}}
	secs := res.elapsed.Seconds()
	fmt.Printf("workload %s seed %d: %d rounds of %d operations in %.3f s, %d failed\n",
		name, seed, res.ops/b.roundLen, b.roundLen, secs, res.failed)
	fmt.Printf("latency p99 %.1f us over %d samples (printed, not bounded)\n", res.lat.quantile(0.99)/1e3, res.lat.n)
	fmt.Printf("setups (s):")
	for _, t := range setupTimes {
		fmt.Printf(" %.4f", t)
	}
	fmt.Println()

	if !trace {
		// Each figure is the median over the window's slices.
		bySlice := func(f func(s slice) float64) float64 {
			v := make([]float64, len(res.slices))
			for i, s := range res.slices {
				v[i] = f(s)
			}
			return median(v)
		}
		sl := sliceLen.Seconds()
		fmt.Printf("per-slice rps:")
		for _, s := range res.slices {
			fmt.Printf(" %.0f", float64(s.ops)/sl)
		}
		fmt.Printf("\nper-slice server us/req:")
		for _, s := range res.slices {
			fmt.Printf(" %.2f", float64(s.serverUs)/float64(max(s.ops, 1)))
		}
		fmt.Println()
		out.Metrics["rps"] = metric{bySlice(func(s slice) float64 { return float64(s.ops) / sl }), "1/s"}
		out.Metrics["body_MBps"] = metric{bySlice(func(s slice) float64 { return float64(s.bodyBytes) / sl / 1e6 }), "MB/s"}
		out.Metrics["lat_p50_us"] = metric{bySlice(func(s slice) float64 { return s.lat.quantile(0.50) / 1e3 }), "us"}
		out.Metrics["lat_p90_us"] = metric{bySlice(func(s slice) float64 { return s.lat.quantile(0.90) / 1e3 }), "us"}
		out.Metrics["server_cpu_us_per_req"] = metric{bySlice(func(s slice) float64 { return float64(s.serverUs) / float64(max(s.ops, 1)) }), "us"}
		out.Metrics["server_rss_mb"] = metric{float64(after.proc.rssKB) / 1024, "MiB"}
		out.Metrics["setup_s"] = metric{median(setupTimes), "s"}
	} else {
		if err := layerMetrics(&out, b, org, res, overheadPct, before, after, epoch, root); err != nil {
			return err
		}
	}
	names := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-32s %14.4f %s\n", k, out.Metrics[k].Value, out.Metrics[k].Unit)
	}

	for _, c := range conns {
		c.close()
	}
	if err := srv.stop(); err != nil {
		return fmt.Errorf("server exit: %w", err)
	}
	if org != nil {
		if err := org.stop(); err != nil {
			return fmt.Errorf("origin exit: %w", err)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
