package main

import (
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// The origin behind proxy_mix. It serves the proxy catalog from the
// content function: long-lived and never-seen objects with max-age,
// revalidated and bumped objects with no-cache. A revalidated object
// stays at version 0, so a matching If-None-Match gets a 304; a bumped
// object is at a new version on every request for it.

type origin struct {
	cat      *proxyCatalog
	versions []atomic.Int64 // per rank: requests so far for a bumped object
	reqs     atomic.Int64
	conns    atomic.Int64
}

// originReport is the origin child's answer to "stats".
type originReport struct {
	Requests int64
	Conns    int64
}

func (o *origin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	o.reqs.Add(1)
	name := strings.TrimPrefix(r.URL.Path, proxyPrefix)
	class, n, ok := o.cat.lookup(name)
	if !ok {
		http.NotFound(w, r)
		return
	}
	var ver int64
	cc := proxyMaxAge
	switch class {
	case 'R':
		cc = "no-cache"
	case 'B':
		cc = "no-cache"
		ver = o.versions[n].Add(1) - 1
	}
	etag := proxyETag(name, ver)
	h := w.Header()
	h.Set("Cache-Control", cc)
	h.Set("ETag", etag)
	h.Set("Last-Modified", time.Unix(baseMTime+ver, 0).UTC().Format(http.TimeFormat))
	h.Set("Content-Type", "application/octet-stream")
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	body := make([]byte, proxyBytes)
	fillContent(body, objectKey(o.cat.seed, proxyPrefix+name, ver), 0)
	h.Set("Content-Length", strconv.Itoa(proxyBytes))
	w.Write(body)
}

// originMain is the origin child.
func originMain(seed uint64) error {
	o := &origin{cat: newProxyCatalog(seed)}
	o.versions = make([]atomic.Int64, proxyObjects)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: o, ConnState: func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			o.conns.Add(1)
		}
	}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	err = commandLoop(ln.Addr().String(), func() any {
		return originReport{Requests: o.reqs.Load(), Conns: o.conns.Load()}
	})
	hs.Close()
	<-done
	return err
}
