package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"
)

// The benchmark's own HTTP/1.1 client side: requests are prebuilt byte
// strings, and responses are parsed and checked here without the
// server's httpmsg package, so a parser fault on the server is not
// mirrored by the checker.

// scheme says how a response names the generation of its body.
type scheme uint8

const (
	// schemeFile: Last-Modified is baseMTime+generation, and the ETag is
	// "<size hex>-<mtime hex>" (the server's stat-derived tag).
	schemeFile scheme = iota
	// schemeProxy: the origin's ETag is "<name>-v<version>" and
	// Last-Modified is baseMTime+version.
	schemeProxy
)

// baseMTime is generation 0's modification time for every generated
// file and origin object; generation g is g whole seconds later.
var baseMTime = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC).Unix()

// expect is what one request must get back, computed by the benchmark.
type expect struct {
	scheme scheme
	status int    // 200, 206 or 304
	path   string // content path (the key of the content function)
	name   string // origin object name (schemeProxy)
	size   int64  // full object size
	off, n int64  // body window: [0,size) for 200, the range for 206
	etag   string // 304: the tag the request sent
	// maxGen, when set, bounds the generation a body may carry (files
	// replaced during the run); otherwise only generation 0 exists.
	maxGen     func() int64
	anyVersion bool // schemeProxy: any version >= 0 is acceptable
}

// opSpec is one request and its expectation.
type opSpec struct {
	req []byte
	exp expect
}

func getRequest(path string, extra ...string) []byte {
	var b bytes.Buffer
	b.WriteString("GET ")
	b.WriteString(path)
	b.WriteString(" HTTP/1.1\r\nHost: bench\r\nUser-Agent: perfbench\r\n")
	for _, h := range extra {
		b.WriteString(h)
		b.WriteString("\r\n")
	}
	b.WriteString("\r\n")
	return b.Bytes()
}

// response is a parsed response head; string fields alias the reader's
// buffer until the next read.
type response struct {
	status        int
	contentLength int64 // -1 when absent
	contentRange  string
	etag          string
	lastModified  string
	close         bool
	chunked       bool
	head          []byte
	body          []byte
	firstByte     time.Time // when the first byte of the head arrived
}

var errMalformed = errors.New("malformed response head")

// respReader reads keep-alive responses from one connection. buf holds
// the head plus whatever body bytes arrived with it; body bytes beyond
// that are read straight into body.
type respReader struct {
	r       io.Reader
	buf     []byte
	lo, hi  int // unread bytes are buf[lo:hi]
	bodyBuf []byte
}

func newRespReader(r io.Reader) *respReader {
	return &respReader{r: r, buf: make([]byte, 64<<10)}
}

// fill reads more bytes into buf, recording the time of the first
// byte of a response.
func (rr *respReader) fill(resp *response) error {
	if rr.lo > 0 {
		rr.hi = copy(rr.buf, rr.buf[rr.lo:rr.hi])
		rr.lo = 0
	}
	if rr.hi == len(rr.buf) {
		return errMalformed // head larger than the buffer
	}
	n, err := rr.r.Read(rr.buf[rr.hi:])
	if n > 0 {
		if rr.hi == rr.lo && resp.firstByte.IsZero() {
			resp.firstByte = time.Now()
		}
		rr.hi += n
		return nil
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return err
}

// read reads one response. A 304 has no body; every other response
// must carry a Content-Length.
func (rr *respReader) read(resp *response) error {
	*resp = response{contentLength: -1}
	if rr.hi > rr.lo {
		resp.firstByte = time.Now()
	}
	var end int
	for {
		if i := bytes.Index(rr.buf[rr.lo:rr.hi], []byte("\r\n\r\n")); i >= 0 {
			end = rr.lo + i + 4
			break
		}
		if err := rr.fill(resp); err != nil {
			return err
		}
	}
	if err := parseHead(rr.buf[rr.lo:end], resp); err != nil {
		return err
	}
	resp.head = rr.buf[rr.lo:end]
	rr.lo = end
	if resp.status == 304 || resp.contentLength <= 0 {
		if resp.chunked || (resp.status != 304 && resp.contentLength < 0) {
			return errMalformed
		}
		return nil
	}
	n := int(resp.contentLength)
	if cap(rr.bodyBuf) < n {
		rr.bodyBuf = make([]byte, n)
	}
	body := rr.bodyBuf[:n]
	got := copy(body, rr.buf[rr.lo:rr.hi])
	rr.lo += got
	if _, err := io.ReadFull(rr.r, body[got:]); err != nil {
		return fmt.Errorf("body truncated: %w", err)
	}
	resp.body = body
	return nil
}

// parseHead fills resp from a complete head ending in CRLFCRLF.
func parseHead(head []byte, resp *response) error {
	line, rest, ok := bytes.Cut(head, []byte("\r\n"))
	if !ok || len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) || line[8] != ' ' {
		return errMalformed
	}
	st, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return errMalformed
	}
	resp.status = st
	for len(rest) > 2 {
		line, rest, _ = bytes.Cut(rest, []byte("\r\n"))
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return errMalformed
		}
		v = bytes.TrimSpace(v)
		switch {
		case asciiEqualFold(k, "content-length"):
			n, err := strconv.ParseInt(string(v), 10, 64)
			if err != nil || n < 0 {
				return errMalformed
			}
			resp.contentLength = n
		case asciiEqualFold(k, "content-range"):
			resp.contentRange = string(v)
		case asciiEqualFold(k, "etag"):
			resp.etag = string(v)
		case asciiEqualFold(k, "last-modified"):
			resp.lastModified = string(v)
		case asciiEqualFold(k, "connection"):
			resp.close = asciiEqualFold(v, "close")
		case asciiEqualFold(k, "transfer-encoding"):
			resp.chunked = true
		}
	}
	return nil
}

func asciiEqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}

// fileETag is the tag a file of this size and mtime must carry.
func fileETag(size, mtime int64) string {
	return `"` + strconv.FormatInt(size, 16) + "-" + strconv.FormatInt(mtime, 16) + `"`
}

// proxyETag is the tag the benchmark's origin gives a version.
func proxyETag(name string, version int64) string {
	return `"` + name + "-v" + strconv.FormatInt(version, 10) + `"`
}

// generation resolves the generation a response names, checking that
// its ETag and Last-Modified agree.
func generation(e *expect, resp *response) (int64, error) {
	lm, err := time.Parse(time.RFC1123, resp.lastModified)
	if err != nil {
		return 0, fmt.Errorf("bad Last-Modified %q", resp.lastModified)
	}
	gen := lm.Unix() - baseMTime
	if gen < 0 {
		return 0, fmt.Errorf("Last-Modified %q precedes generation 0", resp.lastModified)
	}
	var want string
	if e.scheme == schemeProxy {
		want = proxyETag(e.name, gen)
	} else {
		want = fileETag(e.size, lm.Unix())
	}
	if resp.etag != want {
		return 0, fmt.Errorf("ETag %s does not name Last-Modified generation %d (want %s)", resp.etag, gen, want)
	}
	limit := int64(0)
	if e.maxGen != nil {
		limit = e.maxGen()
	}
	if !e.anyVersion && gen > limit {
		return 0, fmt.Errorf("generation %d was never written (latest %d)", gen, limit)
	}
	return gen, nil
}

// check verifies one response against its expectation: status, framing,
// the generation its validators name, and every body byte.
func check(seed uint64, e *expect, resp *response) error {
	if resp.status != e.status {
		return fmt.Errorf("status %d, want %d", resp.status, e.status)
	}
	if resp.close {
		return errors.New("server closed a keep-alive connection")
	}
	if e.status == 304 {
		// A 304 carries the validator it matched; Last-Modified is
		// optional beside an ETag (RFC 7232 §4.1).
		if resp.etag != e.etag {
			return fmt.Errorf("304 ETag %s, want %s", resp.etag, e.etag)
		}
		if resp.lastModified != "" {
			_, err := generation(e, resp)
			return err
		}
		return nil
	}
	gen, err := generation(e, resp)
	if err != nil {
		return err
	}
	switch e.status {
	case 206:
		want := "bytes " + strconv.FormatInt(e.off, 10) + "-" + strconv.FormatInt(e.off+e.n-1, 10) + "/" + strconv.FormatInt(e.size, 10)
		if resp.contentRange != want {
			return fmt.Errorf("Content-Range %q, want %q", resp.contentRange, want)
		}
	default:
		if resp.contentRange != "" {
			return fmt.Errorf("unexpected Content-Range %q on a %d", resp.contentRange, e.status)
		}
	}
	if resp.contentLength != e.n || int64(len(resp.body)) != e.n {
		return fmt.Errorf("Content-Length %d (body %d), want %d", resp.contentLength, len(resp.body), e.n)
	}
	if i := contentMismatch(resp.body, objectKey(seed, e.path, gen), e.off); i >= 0 {
		return fmt.Errorf("%s generation %d: body byte %d differs", e.path, gen, e.off+int64(i))
	}
	return nil
}
