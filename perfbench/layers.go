package main

import (
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/httpmsg"
	"repro/internal/metrics"
	"repro/internal/upstream"
)

// Layer timings for the traced run: calls into each layer's public
// functions on the workload's own inputs, in batches of one pass over
// the inputs. Each batch is a span; a layer's figure is the median
// batch's time per call, and its allocations per call come from the
// runtime's allocation count over one batch.

// layerSpan is one timed batch.
type layerSpan struct {
	name       string
	start, end int64 // ns since the benchmark started
	calls      int
}

type layerTimer struct {
	epoch time.Time
	spans []layerSpan
}

// layerBudget is how long each layer is timed.
const layerBudget = 60 * time.Millisecond

// time runs batch (which makes calls calls) repeatedly for layerBudget
// and returns the median ns per call and the allocations per call.
func (lt *layerTimer) time(name string, calls int, batch func()) (nsPerCall, allocsPerCall float64) {
	if calls == 0 {
		return 0, 0
	}
	batch() // warm
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	batch()
	runtime.ReadMemStats(&ms1)
	allocsPerCall = float64(ms1.Mallocs-ms0.Mallocs) / float64(calls)
	var per []float64
	end := time.Now().Add(layerBudget)
	for len(per) < 5 || time.Now().Before(end) {
		t0 := time.Now()
		batch()
		t1 := time.Now()
		lt.spans = append(lt.spans, layerSpan{name, t0.Sub(lt.epoch).Nanoseconds(), t1.Sub(lt.epoch).Nanoseconds(), calls})
		per = append(per, float64(t1.Sub(t0).Nanoseconds())/float64(calls))
	}
	return median(per), allocsPerCall
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sink keeps results of timed calls alive.
var sink int

// layerInputs are the workload's own inputs to the layers.
type layerInputs struct {
	requests [][]byte // request heads the client sends
	respHead [][]byte // response heads: the origin's for proxy_mix, else the server's
	metas    []httpmsg.ResponseMeta
	ranges   []string    // Range header values
	etags    [][2]string // If-None-Match value, current tag
	objects  []object
	latency  []time.Duration // the traced window's latencies
	mapBytes int64
}

func inputsFor(b *bench, heads [][]byte, samples []int64) *layerInputs {
	in := &layerInputs{respHead: heads, objects: b.objects, mapBytes: b.spec.MapBytes}
	if in.mapBytes == 0 {
		in.mapBytes = 64 << 20 // the server's default budget
	}
	n := min(int(b.roundLen), 512)
	for i := 0; i < n; i++ {
		o := b.op(int64(i))
		in.requests = append(in.requests, append([]byte(nil), o.req...))
		e := o.exp
		mtime := baseMTime
		m := httpmsg.ResponseMeta{Status: e.status, ContentType: "text/html", ContentLength: e.n,
			ModTime: time.Unix(mtime, 0), Date: time.Unix(mtime+3600, 0), KeepAlive: true}
		if e.scheme == schemeProxy {
			m.ETag = proxyETag(e.name, 0)
		} else {
			m.ETag = fileETag(e.size, mtime)
		}
		if e.status == 206 {
			m.ContentRange = "bytes " + strconv.FormatInt(e.off, 10) + "-" + strconv.FormatInt(e.off+e.n-1, 10) + "/" + strconv.FormatInt(e.size, 10)
		}
		in.metas = append(in.metas, m)
		if h, ok := headerValue(o.req, "range"); ok {
			in.ranges = append(in.ranges, h)
		}
		if h, ok := headerValue(o.req, "if-none-match"); ok {
			in.etags = append(in.etags, [2]string{h, m.ETag})
		}
	}
	for _, s := range samples {
		in.latency = append(in.latency, time.Duration(s))
	}
	return in
}

func headerValue(req []byte, key string) (string, bool) {
	for _, line := range strings.Split(string(req), "\r\n") {
		k, v, ok := strings.Cut(line, ":")
		if ok && strings.EqualFold(k, key) {
			return strings.TrimSpace(v), true
		}
	}
	return "", false
}

// newStore builds a chunk store the way the server builds its own with
// one event loop, with the workload's budget.
func newStore(mapBytes int64, replicate bool) *cache.ShardedStore {
	return cache.NewShardedStore(cache.StoreOptions{
		Shards: 1, PathEntries: 6000, HeaderEntries: 6000,
		MapBytes: mapBytes, ChunkBytes: cache.DefaultChunkSize,
		DisableReplication: !replicate,
	})
}

// timeLayers times every layer on the workload's inputs and returns the
// per-call figures by metric name.
func timeLayers(lt *layerTimer, in *layerInputs) map[string]float64 {
	out := map[string]float64{}

	var req httpmsg.Request
	out["httpmsg.parse_ns"], out["httpmsg.parse_allocs"] = lt.time("httpmsg.parse", len(in.requests), func() {
		for _, h := range in.requests {
			req.Reset()
			if req.ParseBytes(h) == nil {
				sink += len(req.Path)
			}
		}
	})
	hdr := make([]byte, 0, 512)
	out["httpmsg.header_ns"], out["httpmsg.header_allocs"] = lt.time("httpmsg.header", len(in.metas), func() {
		for i := range in.metas {
			hdr = httpmsg.AppendHeader(hdr[:0], in.metas[i], true)
		}
		sink += len(hdr)
	})
	out["httpmsg.range_ns"], _ = lt.time("httpmsg.range", len(in.ranges), func() {
		for _, v := range in.ranges {
			if r := httpmsg.ParseRange(v); r != nil {
				sink += int(r.Start)
			}
		}
	})
	out["httpmsg.etag_match_ns"], _ = lt.time("httpmsg.etag_match", len(in.etags), func() {
		for _, p := range in.etags {
			if httpmsg.ETagMatch(p[0], p[1]) {
				sink++
			}
		}
	})
	var resp httpmsg.Response
	parsed := make([]*httpmsg.Response, 0, len(in.respHead))
	for _, h := range in.respHead {
		if r, err := httpmsg.ParseResponse(h); err == nil {
			parsed = append(parsed, r)
		}
	}
	out["httpmsg.resp_parse_ns"], _ = lt.time("httpmsg.resp_parse", len(in.respHead), func() {
		for _, h := range in.respHead {
			resp.Reset()
			if resp.ParseBytes(h) == nil {
				sink += resp.Status
			}
		}
	})
	now := time.Unix(baseMTime+86400, 0)
	out["upstream.freshness_ns"], _ = lt.time("upstream.freshness", len(parsed), func() {
		for _, r := range parsed {
			sink += int(upstream.EvalFreshness(r, now).TTL)
		}
	})
	var h metrics.Histogram
	out["metrics.observe_ns"], _ = lt.time("metrics.observe", len(in.latency), func() {
		for _, d := range in.latency {
			h.Observe(d)
		}
	})

	// The cache tiers, on the workload's files: a path entry, a header
	// and the first chunk of each.
	objs := in.objects
	chunk := make([]byte, cache.DefaultChunkSize)
	firstChunk := func(o object) []byte { return chunk[:min(o.size, int64(len(chunk)))] }
	st := newStore(in.mapBytes, true)
	v := st.View(0)
	hot := objs[:min(len(objs), 512)]
	for _, o := range hot {
		v.PutPath(o.path, cache.PathEntry{Translated: o.path, Size: o.size, ModTime: baseMTime, ETag: fileETag(o.size, baseMTime)})
		v.PutHeader(o.path, "", cache.HeaderEntry{Header: hdr, Size: o.size, ModTime: baseMTime})
		v.Release(v.Insert(cache.ChunkKey{Path: o.path}, firstChunk(o), int64(len(firstChunk(o))), baseMTime))
	}
	out["cache.path_hit_ns"], _ = lt.time("cache.path_hit", len(hot), func() {
		for _, o := range hot {
			if pe, ok := v.GetPath(o.path); ok {
				sink += int(pe.Size)
			}
		}
	})
	out["cache.header_hit_ns"], _ = lt.time("cache.header_hit", len(hot), func() {
		for _, o := range hot {
			if he, ok := v.GetHeader(o.path, "", baseMTime); ok {
				sink += len(he.Header)
			}
		}
	})
	// L1 hits: the files whose first chunks fit in the L1 together.
	l1 := hot
	for i, used := 0, int64(0); i < len(hot); i++ {
		if used += int64(len(firstChunk(hot[i]))); used > in.mapBytes/8/2 {
			l1 = hot[:i]
			break
		}
	}
	for _, o := range l1 { // pull them back into the L1
		if c := v.Lookup(cache.ChunkKey{Path: o.path}, baseMTime); c != nil {
			v.Release(c)
		}
	}
	out["cache.chunk_l1_hit_ns"], _ = lt.time("cache.chunk_l1_hit", len(l1), func() {
		for _, o := range l1 {
			if c := v.Lookup(cache.ChunkKey{Path: o.path}, baseMTime); c != nil {
				sink += len(c.Data)
				v.Release(c)
			}
		}
	})
	st.Close()

	shared := newStore(in.mapBytes, false)
	sv := shared.View(0)
	for _, o := range hot {
		sv.Release(sv.Insert(cache.ChunkKey{Path: o.path}, firstChunk(o), int64(len(firstChunk(o))), baseMTime))
	}
	out["cache.chunk_shared_hit_ns"], _ = lt.time("cache.chunk_shared_hit", len(hot), func() {
		for _, o := range hot {
			if c := sv.Lookup(cache.ChunkKey{Path: o.path}, baseMTime); c != nil {
				sink += len(c.Data)
				sv.Release(c)
			}
		}
	})
	shared.Close()

	// A fill per file: join, park a reader on chunk 0, publish every
	// chunk, and see the reader woken.
	fills := newStore(in.mapBytes, true)
	fv := fills.View(0)
	woken := 0
	wake := func() { woken++ }
	gen := int64(0)
	out["cache.fill_ns"], _ = lt.time("cache.fill", len(hot), func() {
		gen++ // a new identity each pass, as after a file replacement
		for _, o := range hot {
			f, started := fv.JoinFill(o.path, o.size, baseMTime+gen)
			if !started {
				continue
			}
			if c, pending, _ := f.ChunkAt(0, wake); c != nil {
				fv.Release(c)
			} else if !pending {
				continue
			}
			for k := 0; k < f.NumChunks(); k++ {
				_, n := f.ChunkRange(k)
				if !f.Publish(chunk[:n]) {
					break
				}
			}
		}
	})
	sink += woken
	fills.Close()

	// Inserts into a full store: every insert evicts.
	small := newStore(64*cache.DefaultChunkSize, false)
	ev := small.View(0)
	seq := 0
	out["cache.insert_evict_ns"], _ = lt.time("cache.insert_evict", len(hot), func() {
		for _, o := range hot {
			seq++
			c := ev.Insert(cache.ChunkKey{Path: o.path, Index: seq}, firstChunk(o), int64(len(firstChunk(o))), baseMTime)
			ev.Release(c)
		}
	})
	small.Close()
	return out
}
