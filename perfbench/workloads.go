package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/flash"
	"repro/internal/workload"
)

// object is one file or origin object a workload requests.
type object struct {
	path string
	size int64
}

// bench is one workload, generated from the seed: the server it runs,
// the operations of one round, the warm-up, and any activity that runs
// beside the requests.
type bench struct {
	name     string
	seed     uint64
	spec     serverSpec
	roundLen int64
	round    []opSpec
	miss     func(i int64) opSpec // proxy_mix: builds the misses of a round
	warm     []opSpec
	objects  []object
	// background runs during the settle phase and the timed window and
	// returns when stop closes.
	background func(stop <-chan struct{})
	origin     bool
	settle     time.Duration
}

func (b *bench) op(i int64) opSpec {
	o := b.round[i%b.roundLen]
	if o.req == nil {
		return b.miss(i)
	}
	return o
}

var workloadNames = []string{"static_hot", "static_hot_epoll", "ece_miss", "proxy_mix"}

func buildWorkload(name string, seed uint64, dir string) (*bench, error) {
	switch name {
	case "static_hot":
		return staticHot(name, seed, dir, "")
	case "static_hot_epoll":
		return staticHot(name, seed, dir, flash.ConnEngineEpoll)
	case "ece_miss":
		return eceMiss(seed, dir)
	case "proxy_mix":
		return proxyMix(seed, dir)
	}
	return nil, fmt.Errorf("unknown workload %q: want one of %v or all", name, workloadNames)
}

// writeFile writes generation gen of a generated file and sets its
// mtime to baseMTime+gen. A generation after the first goes to a
// temporary file renamed over the old one, so readers see one
// generation or the other, never a mix.
func writeFile(seed uint64, root, path string, size, gen int64, buf []byte) error {
	full := filepath.Join(root, filepath.FromSlash(path))
	target := full
	if gen > 0 {
		target = filepath.Join(filepath.Dir(full), ".next-"+filepath.Base(full))
	}
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		return err
	}
	data := buf[:size]
	fillContent(data, objectKey(seed, path, gen), 0)
	if err := os.WriteFile(target, data, 0o644); err != nil {
		return err
	}
	mt := time.Unix(baseMTime+gen, 0)
	if err := os.Chtimes(target, mt, mt); err != nil {
		return err
	}
	if target != full {
		return os.Rename(target, full)
	}
	return nil
}

// geometricSizes returns n sizes from lo to hi in equal ratios.
func geometricSizes(n int, lo, hi float64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(lo * math.Pow(hi/lo, float64(i)/float64(n-1)))
	}
	return out
}

// Static hot set: 64 files of 256 B to 16 KiB in equal ratios, each
// requested 10 times a round: 8 plain GETs, one If-None-Match with its
// current tag (304) and one Range inside the file (206).
const (
	hotFiles      = 64
	hotGetPerFile = 8
)

func staticHot(name string, seed uint64, dir, engine string) (*bench, error) {
	root := filepath.Join(dir, "docroot")
	r := newRNG(seed, 1)
	sizes := geometricSizes(hotFiles, 256, 16<<10)
	r.shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	buf := make([]byte, 16<<10)
	b := &bench{name: name, seed: seed, spec: serverSpec{DocRoot: root, ConnEngine: engine}, settle: time.Second}
	for f, size := range sizes {
		path := fmt.Sprintf("/s/f%02d.html", f)
		if err := writeFile(seed, root, path, size, 0, buf); err != nil {
			return nil, err
		}
		b.objects = append(b.objects, object{path, size})
		full := expect{scheme: schemeFile, status: 200, path: path, size: size, n: size}
		b.warm = append(b.warm, opSpec{getRequest(path), full})
		for k := 0; k < hotGetPerFile; k++ {
			b.round = append(b.round, opSpec{getRequest(path), full})
		}
		tag := fileETag(size, baseMTime)
		inm := full
		inm.status, inm.n, inm.etag = 304, 0, tag
		b.round = append(b.round, opSpec{getRequest(path, "If-None-Match: "+tag), inm})
		start := int64(r.intn(int(size / 2)))
		end := start + int64(r.intn(int(size-start)))
		rg := full
		rg.status, rg.off, rg.n = 206, start, end-start+1
		b.round = append(b.round, opSpec{getRequest(path, fmt.Sprintf("Range: bytes=%d-%d", start, end)), rg})
	}
	r.shuffle(len(b.round), func(i, j int) { b.round[i], b.round[j] = b.round[j], b.round[i] })
	b.roundLen = int64(len(b.round))
	return b, nil
}

// ECE miss storm: the RiceECE population (its own fixed seed, so the
// size and popularity structure is the same for every benchmark seed)
// scaled to eceFiles files and eceDataset bytes, against a chunk-cache
// budget of eceMapBytes. A round is the trace's first eceRound requests
// in a seeded order. Beside the requests, one of the 64 most requested
// files is replaced every eceReplaceEvery by atomic rename, each new
// generation one second newer than the last.
const (
	eceFiles        = 2400
	eceDataset      = 40 << 20
	eceRound        = 4000
	eceMapBytes     = 8 << 20
	eceReplaceEvery = 100 * time.Millisecond
	eceReplacePool  = 64
	eceWarm         = 256
)

func eceMiss(seed uint64, dir string) (*bench, error) {
	root := filepath.Join(dir, "docroot")
	cfg := workload.RiceECE()
	cfg.NumFiles, cfg.DatasetBytes, cfg.Requests = eceFiles, eceDataset, eceRound
	tr := workload.Generate(cfg)
	paths := make([]string, 0, len(tr.Files))
	var maxSize int64
	for p, s := range tr.Files {
		paths = append(paths, p)
		maxSize = max(maxSize, s)
	}
	sort.Strings(paths)
	index := make(map[string]int, len(paths))
	buf := make([]byte, maxSize)
	b := &bench{name: "ece_miss", seed: seed, settle: 2 * time.Second,
		spec: serverSpec{DocRoot: root, MapBytes: eceMapBytes}}
	for i, p := range paths {
		index[p] = i
		if err := writeFile(seed, root, p, tr.Files[p], 0, buf); err != nil {
			return nil, err
		}
		b.objects = append(b.objects, object{p, tr.Files[p]})
	}
	gens := make([]atomic.Int64, len(paths))
	reqs := map[string][]byte{}
	counts := map[string]int{}
	for _, e := range tr.Entries {
		if reqs[e.Path] == nil {
			reqs[e.Path] = getRequest(e.Path)
		}
		counts[e.Path]++
		g := &gens[index[e.Path]]
		b.round = append(b.round, opSpec{reqs[e.Path], expect{scheme: schemeFile, status: 200,
			path: e.Path, size: e.Size, n: e.Size, maxGen: g.Load}})
	}
	r := newRNG(seed, 2)
	r.shuffle(len(b.round), func(i, j int) { b.round[i], b.round[j] = b.round[j], b.round[i] })
	b.roundLen = int64(len(b.round))
	seen := map[string]bool{}
	for _, o := range b.round {
		if len(b.warm) < eceWarm && !seen[o.exp.path] {
			seen[o.exp.path] = true
			b.warm = append(b.warm, o)
		}
	}

	// The replacement targets: the most requested files, in seeded order.
	hot := append([]string(nil), paths...)
	sort.SliceStable(hot, func(i, j int) bool { return counts[hot[i]] > counts[hot[j]] })
	hot = hot[:eceReplacePool]
	r.shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
	b.background = func(stop <-chan struct{}) {
		tick := time.NewTicker(eceReplaceEvery)
		defer tick.Stop()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			p := hot[k%len(hot)]
			g := &gens[index[p]]
			next := g.Load() + 1
			// Publish the generation before the rename, so a response
			// naming it is never judged as from the future.
			g.Store(next)
			if err := writeFile(seed, root, p, tr.Files[p], next, buf); err != nil {
				fmt.Fprintln(os.Stderr, "replace:", err)
			}
		}
	}
	return b, nil
}

// Proxy mix: the traffic of scripts/bench_proxy.sh's revalidate mode,
// Zipf(proxyZipf) over proxyObjects targets of proxyBytes each, before
// the server's default chunk-cache budget (the catalog, 31 MiB, fits in
// it). Rank r has kind r%4: long-lived (max-age, as bench_proxy.sh's
// warm_hit mode), revalidated (no-cache; the origin answers a matching
// If-None-Match with 304), bumped (no-cache; the origin moves the object
// to a new version on every request for it, so each revalidation
// returns a new 200 body), or never-seen (a new key for every request,
// as bench_proxy.sh's miss mode). No trace in the repository gives the
// kinds' shares; interleaving by rank favours none but through the
// Zipf head. A round is proxyRound requests drawn by quantile.
const (
	proxyObjects = 2000
	proxyZipf    = 1.02
	proxyBytes   = 16 << 10
	proxyMaxAge  = "max-age=3600"
	proxyRound   = 4000
)

// proxyCatalog is the origin's object table, shared by the origin child
// and the client so both compute the same names and kinds.
type proxyCatalog struct {
	seed  uint64
	names []string // "" for a never-seen rank
	class []byte   // 'L', 'R', 'B' or 'M'
}

func newProxyCatalog(seed uint64) *proxyCatalog {
	c := &proxyCatalog{seed: seed}
	for r := 0; r < proxyObjects; r++ {
		cl := "LRBM"[r%4]
		name := ""
		if cl != 'M' {
			name = string(cl) + strconv.Itoa(r)
		}
		c.names = append(c.names, name)
		c.class = append(c.class, cl)
	}
	return c
}

// lookup resolves an object name to its class and rank (the operation
// number for a never-seen key).
func (c *proxyCatalog) lookup(name string) (class byte, n int64, ok bool) {
	if len(name) < 2 {
		return 0, 0, false
	}
	n, err := strconv.ParseInt(name[1:], 10, 64)
	if err != nil || n < 0 {
		return 0, 0, false
	}
	if name[0] == 'M' {
		return 'M', n, true
	}
	if n >= proxyObjects || c.names[n] != name {
		return 0, 0, false
	}
	return c.class[n], n, true
}

func proxyMix(seed uint64, dir string) (*bench, error) {
	root := filepath.Join(dir, "docroot")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	cat := newProxyCatalog(seed)
	b := &bench{name: "proxy_mix", seed: seed, origin: true, settle: time.Second,
		spec: serverSpec{DocRoot: root}}
	objOp := func(name string) opSpec {
		path := proxyPrefix + name
		return opSpec{getRequest(path), expect{scheme: schemeProxy, status: 200, path: path,
			name: name, size: proxyBytes, n: proxyBytes, anyVersion: name[0] == 'B'}}
	}
	cdf := make([]float64, proxyObjects)
	sum := 0.0
	for r := range cdf {
		sum += math.Pow(float64(r+1), -proxyZipf)
		cdf[r] = sum
	}
	seen := map[int]bool{}
	for j := 0; j < proxyRound; j++ {
		r := sort.SearchFloat64s(cdf, (float64(j)+0.5)/proxyRound*sum)
		if cat.class[r] == 'M' {
			b.round = append(b.round, opSpec{}) // built per operation
			continue
		}
		o := objOp(cat.names[r])
		b.round = append(b.round, o)
		if !seen[r] {
			seen[r] = true
			b.objects = append(b.objects, object{o.exp.path, proxyBytes})
			b.warm = append(b.warm, o)
		}
	}
	rng := newRNG(seed, 4)
	rng.shuffle(len(b.round), func(i, j int) { b.round[i], b.round[j] = b.round[j], b.round[i] })
	b.roundLen = int64(len(b.round))
	b.miss = func(i int64) opSpec { return objOp("M" + strconv.FormatInt(i, 10)) }
	return b, nil
}
