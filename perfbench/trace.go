package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/cache"
)

// The traced run. Spans are kept in memory and written out at the end
// as JSON lines: per exchange an "exchange" span from the claim of the
// operation to the end of its check, with children "write" (request
// write), "wait" (until the first response byte), "body" (until the
// last body byte) and "check" (the benchmark's verification), all
// sharing the operation number as trace id; and a "layer/<name>" span
// around each timed batch of calls into a layer.

// spanRecord is one written span.
type spanRecord struct {
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls,omitempty"`
}

// writtenExchanges caps how many exchanges the trace file holds; the
// metrics use every recorded exchange.
const writtenExchanges = 20000

func layerMetrics(out *result, b *bench, org *child, res *phaseResult, overheadPct float64,
	before, after snapshot, epoch time.Time, root string) error {
	completed := float64(max(res.ops-res.failed, 1))
	set := func(name string, v float64, unit string) { out.Metrics[name] = metric{v, unit} }
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}

	// Server counters over the window.
	s0, s1 := before.srv.Stats, after.srv.Stats
	l10, l11 := sumL1(before.srv), sumL1(after.srv)
	ph, pm := s1.PathCache.Hits-s0.PathCache.Hits, s1.PathCache.Misses-s0.PathCache.Misses
	lh, lm := l11.Hits-l10.Hits, l11.Misses-l10.Misses
	sh, sm := s1.SharedChunks.Hits-s0.SharedChunks.Hits, s1.SharedChunks.Misses-s0.SharedChunks.Misses
	fs, fj, ff := s1.Fills.Started-s0.Fills.Started, s1.Fills.Joined-s0.Fills.Joined, s1.Fills.Failed-s0.Fills.Failed
	set("cache.path_hit_ratio", ratio(ph, ph+pm), "ratio")
	set("cache.chunk_l1_hit_ratio", ratio(lh, lh+lm), "ratio")
	set("cache.chunk_shared_hit_ratio", ratio(sh, sh+sm), "ratio")
	set("cache.fills_started_per_kreq", float64(fs)*1000/completed, "1/kreq")
	set("cache.fills_joined_per_kreq", float64(fj)*1000/completed, "1/kreq")
	set("cache.fill_waste_ratio", ratio(ff, fs), "ratio")
	set("flash.helper_jobs_per_req", float64(s1.HelperJobs-s0.HelperJobs)/completed, "1/req")
	set("flash.sendfile_byte_share", ratio(uint64(s1.BytesSendfile-s0.BytesSendfile), uint64(s1.BytesSent-s0.BytesSent)), "ratio")
	set("flash.copied_bytes_per_req", float64(s1.BytesCopied-s0.BytesCopied)/completed, "B/req")
	set("flash.proxy_hit_ratio", ratio(s1.ProxyHits-s0.ProxyHits, s1.ProxyRequests-s0.ProxyRequests), "ratio")
	set("flash.proxy_revalidated_per_kreq", float64(s1.ProxyRevalidated-s0.ProxyRevalidated)*1000/completed, "1/kreq")
	set("flash.proxy_fills_per_kreq", float64(s1.ProxyFills-s0.ProxyFills)*1000/completed, "1/kreq")
	set("upstream.origin_reqs_per_req", float64(after.origin.Requests-before.origin.Requests)/completed, "1/req")
	set("upstream.origin_conns_per_kreq", float64(after.origin.Conns-before.origin.Conns)*1000/completed, "1/kreq")

	// The server process, from /proc.
	p0, p1 := before.proc, after.proc
	set("server.user_us_per_req", float64(p1.userTicks-p0.userTicks)*1e6/clockTicks/completed, "us")
	set("server.sys_us_per_req", float64(p1.sysTicks-p0.sysTicks)*1e6/clockTicks/completed, "us")
	set("server.read_syscalls_per_req", float64(p1.syscr-p0.syscr)/completed, "1/req")
	set("server.write_syscalls_per_req", float64(p1.syscw-p0.syscw)/completed, "1/req")
	set("server.ctx_switches_per_req", float64(p1.ctxSwitches-p0.ctxSwitches)/completed, "1/req")
	set("server.threads", float64(p1.threads), "count")

	// The client's spans, from the traced phases.
	var write, wait, body, chk []float64
	for _, s := range res.spans {
		write = append(write, float64(s.t1-s.t0)/1e3)
		wait = append(wait, float64(s.t2-s.t1)/1e3)
		body = append(body, float64(s.t3-s.t2)/1e3)
		chk = append(chk, float64(s.t4-s.t3)/1e3)
	}
	set("client.write_us", median(write), "us")
	set("client.ttfb_us", median(wait), "us")
	set("client.body_us", median(body), "us")
	set("client.check_us", median(chk), "us")
	set("client.cpu_us_per_req", float64(after.clientUs-before.clientUs)/completed, "us")
	set("trace.overhead_pct", overheadPct, "%")

	// The layers, timed on the workload's inputs.
	heads := res.heads
	if org != nil {
		heads = originHeads(b, org.addr)
	}
	lt := &layerTimer{epoch: epoch}
	for name, v := range timeLayers(lt, inputsFor(b, heads, res.samples)) {
		unit := "ns"
		if len(name) > 7 && name[len(name)-7:] == "_allocs" {
			unit = "count"
		}
		set(name, v, unit)
	}

	path := filepath.Join(root, ".bench_build", "perfbench", fmt.Sprintf("trace-%s-seed%d.jsonl", b.name, b.seed))
	if err := writeTrace(path, res.spans, lt.spans); err != nil {
		return err
	}
	fmt.Printf("trace: %d exchanges and %d layer batches, written to %s\n", len(res.spans), len(lt.spans), path)
	printSelfTimes(res.spans, lt.spans)
	return nil
}

// sumL1 adds up the shards' L1 chunk counters (a shard's snapshot
// reports its L1 as MapCache).
func sumL1(r serverReport) (m cache.Stats) {
	for _, s := range r.Shards {
		m = m.Add(s.MapCache.Stats)
	}
	return m
}

// originHeads fetches a sample of objects from the origin directly and
// keeps the response heads, the input of the proxy's response parser.
func originHeads(b *bench, addr string) [][]byte {
	c, err := dial(addr)
	if err != nil {
		return nil
	}
	defer c.close()
	var heads [][]byte
	var resp response
	for _, o := range b.warm[:min(len(b.warm), maxHeads)] {
		if _, err := c.nc.Write(o.req); err != nil {
			break
		}
		if err := c.rr.read(&resp); err != nil {
			break
		}
		heads = append(heads, append([]byte(nil), resp.head...))
	}
	return heads
}

func exchangeRecords(s exchangeSpan) []spanRecord {
	return []spanRecord{
		{Trace: s.id, Name: "exchange", Start: s.tc, End: s.t4},
		{Trace: s.id, Name: "write", Parent: "exchange", Start: s.t0, End: s.t1},
		{Trace: s.id, Name: "wait", Parent: "exchange", Start: s.t1, End: s.t2},
		{Trace: s.id, Name: "body", Parent: "exchange", Start: s.t2, End: s.t3},
		{Trace: s.id, Name: "check", Parent: "exchange", Start: s.t3, End: s.t4},
	}
}

func writeTrace(path string, ex []exchangeSpan, layers []layerSpan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range ex[:min(len(ex), writtenExchanges)] {
		for _, r := range exchangeRecords(s) {
			if err := enc.Encode(r); err != nil {
				f.Close()
				return err
			}
		}
	}
	for _, s := range layers {
		if err := enc.Encode(spanRecord{Name: "layer/" + s.name, Start: s.start, End: s.end, Calls: s.calls}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes prints each span name's total self time: its duration
// less the part its children cover.
func printSelfTimes(ex []exchangeSpan, layers []layerSpan) {
	self := map[string]int64{}
	count := map[string]int{}
	for _, s := range ex {
		for _, r := range exchangeRecords(s) {
			d := r.End - r.Start
			if r.Parent == "" {
				d -= s.t4 - s.t0 // the children tile [t0, t4]
			}
			self[r.Name] += d
			count[r.Name]++
		}
	}
	for _, s := range layers {
		self["layer/"+s.name] += s.end - s.start
		count["layer/"+s.name] += s.calls
	}
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Println("self time by span:")
	for _, k := range names {
		fmt.Printf("  %-32s %10.3f ms over %d\n", k, float64(self[k])/1e6, count[k])
	}
}
