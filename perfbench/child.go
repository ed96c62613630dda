package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/flash"
	"repro/internal/upstream"
)

// The server under test and the benchmark's origin each run in a child
// process of the benchmark binary, so their CPU time and memory are
// their own. A child prints "addr <host:port>" once it listens, then
// answers commands read from its standard input, one per line: "stats"
// (one JSON line back), "cpu" (its CPU time in µs) and "quit". This
// channel adds no route to the server.

// serverSpec configures the server child through flash.New.
type serverSpec struct {
	DocRoot    string
	ConnEngine string
	MapBytes   int64
	Origin     string // non-empty: mount a caching proxy to it at proxyPrefix
}

const proxyPrefix = "/o/"

// serverReport is the server child's answer to "stats".
type serverReport struct {
	Stats  flash.Stats
	Shards []flash.Stats
}

// cpuUs is the calling process's CPU time so far, user plus system, in
// microseconds.
func cpuUs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return (ru.Utime.Nano() + ru.Stime.Nano()) / 1000
}

// serveMain is the server child.
func serveMain(specJSON string) error {
	var spec serverSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		return fmt.Errorf("server spec: %w", err)
	}
	cfg := flash.Config{DocRoot: spec.DocRoot, ConnEngine: spec.ConnEngine}
	cfg.Cache.MapBytes = spec.MapBytes
	srv, err := flash.New(cfg)
	if err != nil {
		return err
	}
	var pool *upstream.Pool
	if spec.Origin != "" {
		if pool, err = upstream.New(upstream.Config{Backends: []string{spec.Origin}}); err != nil {
			srv.Close()
			return err
		}
		srv.HandleProxy(proxyPrefix, pool)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
		if pool != nil {
			pool.Close()
		}
	}()
	return commandLoop(ln.Addr().String(), func() any {
		return serverReport{Stats: srv.Stats(), Shards: srv.ShardStats()}
	})
}

// commandLoop announces addr and answers commands until "quit" or the
// end of standard input.
func commandLoop(addr string, report func() any) error {
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "addr %s\n", addr)
	if err := out.Flush(); err != nil {
		return err
	}
	sc := bufio.NewScanner(os.Stdin)
	enc := json.NewEncoder(out)
	for sc.Scan() {
		switch sc.Text() {
		case "stats":
			if err := enc.Encode(report()); err != nil {
				return err
			}
			if err := out.Flush(); err != nil {
				return err
			}
		case "cpu":
			fmt.Fprintf(out, "%d\n", cpuUs())
			if err := out.Flush(); err != nil {
				return err
			}
		case "quit":
			return nil
		}
	}
	return sc.Err()
}

// child is the parent's handle on a child process.
type child struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
	addr string
	done chan error
}

// children tracks every live child so the benchmark stops them all on
// any exit path.
var children = map[*child]struct{}{}

func startChild(args ...string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, in: in, out: bufio.NewReader(outPipe), done: make(chan error, 1)}
	children[c] = struct{}{}
	line, err := c.readLine(30 * time.Second)
	if err != nil || !strings.HasPrefix(line, "addr ") {
		c.kill()
		return nil, fmt.Errorf("child %s did not start: %q %v", args[0], line, err)
	}
	c.addr = strings.TrimPrefix(line, "addr ")
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// readLine reads one line of the child's output, giving up after d.
func (c *child) readLine(d time.Duration) (string, error) {
	type result struct {
		s   string
		err error
	}
	ch := make(chan result, 1)
	go func() {
		s, err := c.out.ReadString('\n')
		ch <- result{strings.TrimSuffix(s, "\n"), err}
	}()
	select {
	case r := <-ch:
		return r.s, r.err
	case <-time.After(d):
		return "", errors.New("timed out waiting for the child")
	}
}

// stats asks the child for its report and decodes it into v.
func (c *child) stats(v any) error {
	if _, err := io.WriteString(c.in, "stats\n"); err != nil {
		return err
	}
	line, err := c.readLine(30 * time.Second)
	if err != nil {
		return err
	}
	return json.Unmarshal([]byte(line), v)
}

// cpuUs asks the child for its CPU time so far (user+system, µs).
func (c *child) cpuUs() (int64, error) {
	if _, err := io.WriteString(c.in, "cpu\n"); err != nil {
		return 0, err
	}
	line, err := c.readLine(30 * time.Second)
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(line, 10, 64)
}

// stop asks the child to quit and waits for it; a child that does not
// exit in time is killed.
func (c *child) stop() error {
	delete(children, c)
	io.WriteString(c.in, "quit\n")
	c.in.Close()
	go func() { c.done <- c.cmd.Wait() }()
	select {
	case err := <-c.done:
		return err
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		<-c.done
		return errors.New("child did not quit; killed")
	}
}

func (c *child) kill() {
	delete(children, c)
	c.cmd.Process.Kill()
	c.in.Close()
	c.cmd.Wait()
}

func stopAllChildren() {
	for c := range children {
		c.stop()
	}
}
