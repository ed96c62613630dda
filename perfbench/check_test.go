package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"testing"
	"time"
)

// The checker self-test: a canned server answers every request with the
// same bytes, and the closed loop must count each faulty answer as a
// failed operation, and the faithful answer as none.

const testSeed = 7

// cannedServer answers each request head read on a connection with
// resp; with closeAfter it closes the connection after answering.
func cannedServer(t *testing.T, resp []byte, closeAfter bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 4096)
				var pending []byte
				for {
					n, err := c.Read(buf)
					if err != nil {
						return
					}
					pending = append(pending, buf[:n]...)
					for {
						i := bytes.Index(pending, []byte("\r\n\r\n"))
						if i < 0 {
							break
						}
						pending = pending[i+4:]
						if _, err := c.Write(resp); err != nil || closeAfter {
							return
						}
					}
				}
			}(c)
		}
	}()
	return ln.Addr().String()
}

// runAgainst runs the closed loop for a moment against a canned answer
// to op and returns the operations attempted and failed.
func runAgainst(t *testing.T, resp []byte, closeAfter bool, op opSpec) (attempted, failed int64) {
	t.Helper()
	addr := cannedServer(t, resp, closeAfter)
	c, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	d := &closedLoop{seed: testSeed, roundLen: 1, op: func(int64) opSpec { return op }, conns: []*clientConn{c}}
	res := d.run(50*time.Millisecond, false)
	if res.ops == 0 {
		t.Fatal("no operation attempted")
	}
	return res.ops, res.failed
}

func httpDate(unix int64) string { return time.Unix(unix, 0).UTC().Format(http.TimeFormat) }

// fileAnswer builds a server response for a generated file: status,
// validators of generation gen, optional Content-Range, and body.
func fileAnswer(status int, size, gen int64, contentRange string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "HTTP/1.1 %d X\r\nContent-Length: %d\r\n", status, len(body))
	fmt.Fprintf(&b, "Last-Modified: %s\r\nETag: %s\r\n", httpDate(baseMTime+gen), fileETag(size, baseMTime+gen))
	if contentRange != "" {
		fmt.Fprintf(&b, "Content-Range: %s\r\n", contentRange)
	}
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}

func proxyAnswer(name string, ver int64, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\nLast-Modified: %s\r\nETag: %s\r\n\r\n",
		len(body), httpDate(baseMTime+ver), proxyETag(name, ver))
	b.Write(body)
	return b.Bytes()
}

func content(path string, gen, off, n int64) []byte {
	b := make([]byte, n)
	fillContent(b, objectKey(testSeed, path, gen), off)
	return b
}

func TestCheckerCountsFaults(t *testing.T) {
	const path, size = "/s/f01.html", 3001
	gen1 := func() int64 { return 1 }
	full := opSpec{getRequest(path), expect{scheme: schemeFile, status: 200, path: path, size: size, n: size, maxGen: gen1}}
	rng := full
	rng.exp.status, rng.exp.off, rng.exp.n = 206, 100, 50
	const pname = "B6"
	proxied := opSpec{getRequest(proxyPrefix + pname), expect{scheme: schemeProxy, status: 200,
		path: proxyPrefix + pname, name: pname, size: 2048, n: 2048, anyVersion: true}}

	flipped := content(path, 1, 0, size)
	flipped[1234] ^= 0x01
	goodRange := "bytes 100-149/" + strconv.Itoa(size)

	cases := []struct {
		name       string
		op         opSpec
		resp       []byte
		closeAfter bool
		wantFail   bool
	}{
		{"faithful 200", full, fileAnswer(200, size, 1, "", content(path, 1, 0, size)), false, false},
		{"earlier generation still served whole", full, fileAnswer(200, size, 0, "", content(path, 0, 0, size)), false, false},
		{"faithful 206", rng, fileAnswer(206, size, 1, goodRange, content(path, 1, 100, 50)), false, false},
		{"faithful proxied body", proxied, proxyAnswer(pname, 3, content(proxyPrefix+pname, 3, 0, 2048)), false, false},

		{"one flipped body byte", full, fileAnswer(200, size, 1, "", flipped), false, true},
		{"body of the previous generation", full, fileAnswer(200, size, 1, "", content(path, 0, 0, size)), false, true},
		{"generation never written", full, fileAnswer(200, size, 2, "", content(path, 2, 0, size)), false, true},
		{"truncated body", full, fileAnswer(200, size, 1, "", content(path, 1, 0, size))[:300], true, true},
		{"206 with the wrong Content-Range", rng, fileAnswer(206, size, 1, "bytes 101-150/"+strconv.Itoa(size), content(path, 1, 100, 50)), false, true},
		{"206 body from the wrong offset", rng, fileAnswer(206, size, 1, goodRange, content(path, 1, 101, 50)), false, true},
		{"proxied body of another version than its ETag", proxied, proxyAnswer(pname, 3, content(proxyPrefix+pname, 2, 0, 2048)), false, true},
		{"wrong status", full, fileAnswer(206, size, 1, goodRange, content(path, 1, 0, size)), false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			attempted, failed := runAgainst(t, tc.resp, tc.closeAfter, tc.op)
			want := int64(0)
			if tc.wantFail {
				want = attempted
			}
			if failed != want {
				t.Errorf("%d of %d operations failed, want %d", failed, attempted, want)
			}
		})
	}
}

func TestHistogramResolution(t *testing.T) {
	for _, v := range []int64{0, 1, 127, 128, 255, 256, 1000, 45_678, 1_234_567, 9_876_543_210} {
		var h hist
		h.observe(v)
		got := h.quantile(0.5)
		if diff := got - float64(v); diff < 0 && -diff > float64(v)/100 || diff > float64(v)/100 {
			t.Errorf("value %d reads %.1f: error beyond 1%%", v, got)
		}
	}
}

func TestContentIsPositionAndGenerationSpecific(t *testing.T) {
	a := content("/x", 0, 0, 4096)
	if bytes.Equal(a, content("/x", 1, 0, 4096)) || bytes.Equal(a, content("/y", 0, 0, 4096)) ||
		bytes.Equal(a[1:], content("/x", 0, 0, 4095)) {
		t.Fatal("content does not depend on generation, path and offset")
	}
	if i := contentMismatch(a[37:1000], objectKey(testSeed, "/x", 0), 37); i >= 0 {
		t.Fatalf("a window of the object mismatches at %d", i)
	}
}
