package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is the memcached server under test, run as its own process at its
// shipped defaults on a loopback port the kernel picks.
type child struct {
	cmd  *exec.Cmd
	addr string
	// banner is the server's "serving on" log line, which names its branch
	// and transport.
	banner string
	done   chan struct{} // closed when the process has exited
	ctl    *rawConn      // control connection for stats
}

func startChild(bin string) (*child, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	addrCh := make(chan string, 1)
	cmd.Stderr = &addrWatcher{found: addrCh}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: the benchmark stops it
		close(c.done)
	}()
	select {
	case c.banner = <-addrCh:
		c.addr = strings.Fields(strings.SplitN(c.banner, "serving on ", 2)[1])[0]
	case <-c.done:
		return nil, errors.New("server exited before listening")
	case <-time.After(30 * time.Second):
		c.stop()
		return nil, errors.New("server did not start listening within 30s")
	}
	var err error
	if c.ctl, err = dialRaw(c.addr); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// addrWatcher consumes the server's log and reports its "serving on <addr>"
// line.
type addrWatcher struct {
	found chan<- string
	line  []byte
	done  bool
}

func (a *addrWatcher) Write(p []byte) (int, error) {
	for _, b := range p {
		if b != '\n' {
			a.line = append(a.line, b)
			continue
		}
		if _, rest, ok := strings.Cut(string(a.line), "serving on "); ok && !a.done && len(strings.Fields(rest)) > 0 {
			a.found <- string(a.line)
			a.done = true
		}
		a.line = a.line[:0]
	}
	return len(p), nil
}

// stop shuts the server down gracefully, killing it if the drain hangs, and
// returns once the process has exited.
func (c *child) stop() {
	if c.ctl != nil {
		c.ctl.Close()
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// procCPU returns the server's user+system CPU time.
func (c *child) procCPU() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.pid()))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line, in clock ticks (USER_HZ=100).
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat line")
	}
	return time.Duration(ut+st) * (time.Second / 100), nil
}

// procIO returns the server's read and write syscall counts.
func (c *child) procIO() (syscr, syscw int64, err error) {
	m, err := procKV(fmt.Sprintf("/proc/%d/io", c.pid()))
	if err != nil {
		return 0, 0, err
	}
	return m["syscr"], m["syscw"], nil
}

// procRSS returns the server's resident set size in bytes.
func (c *child) procRSS() (int64, error) {
	m, err := procKV(fmt.Sprintf("/proc/%d/status", c.pid()))
	if err != nil {
		return 0, err
	}
	return m["VmRSS"] * 1024, nil
}

// procKV parses "name: value [unit]" lines into integers.
func procKV(path string) (map[string]int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		if f := strings.Fields(v); len(f) > 0 {
			if n, err := strconv.ParseInt(f[0], 10, 64); err == nil {
				out[k] = n
			}
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// raw text-protocol connection, for commands the client package does not
// wrap (stats sub-commands, stats reset) and for pipelined preloading.

type rawConn struct {
	net.Conn
	r *bufio.Reader
	w *bufio.Writer
}

func dialRaw(addr string) (*rawConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &rawConn{Conn: nc, r: bufio.NewReaderSize(nc, 64<<10), w: bufio.NewWriterSize(nc, 64<<10)}, nil
}

func (r *rawConn) readLine() (string, error) {
	l, err := r.r.ReadString('\n')
	return strings.TrimRight(l, "\r\n"), err
}

// stats runs "stats [sub]" and returns its STAT map.
func (r *rawConn) stats(sub string) (map[string]string, error) {
	cmd := "stats"
	if sub != "" {
		cmd += " " + sub
	}
	if _, err := r.w.WriteString(cmd + "\r\n"); err != nil {
		return nil, err
	}
	if err := r.w.Flush(); err != nil {
		return nil, err
	}
	out := make(map[string]string)
	for {
		l, err := r.readLine()
		if err != nil {
			return nil, err
		}
		if l == "END" {
			return out, nil
		}
		rest, ok := strings.CutPrefix(l, "STAT ")
		if !ok {
			return nil, fmt.Errorf("%s: unexpected line %q", cmd, l)
		}
		k, v, _ := strings.Cut(rest, " ")
		out[k] = v
	}
}

func (r *rawConn) resetStats() error {
	if _, err := r.w.WriteString("stats reset\r\n"); err != nil {
		return err
	}
	if err := r.w.Flush(); err != nil {
		return err
	}
	l, err := r.readLine()
	if err != nil {
		return err
	}
	if l != "RESET" {
		return fmt.Errorf("stats reset replied %q", l)
	}
	return nil
}

func statInt(m map[string]string, k string) (int64, error) {
	v, ok := m[k]
	if !ok {
		return 0, fmt.Errorf("stat %s missing", k)
	}
	return strconv.ParseInt(v, 10, 64)
}

// histField extracts one "name=value" field of a histogram STAT line such as
// "count=10 mean_ns=5 p50_ns=4 ...".
func histField(line, name string) (float64, error) {
	for _, f := range strings.Fields(line) {
		if k, v, ok := strings.Cut(f, "="); ok && k == name {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("histogram field %s missing in %q", name, line)
}

// preloadPipelined stores n items, writing the sets back to back while a
// second goroutine reads and checks the STORED replies.
func preloadPipelined(addr string, n int, item func(i int) (key string, value []byte)) error {
	rc, err := dialRaw(addr)
	if err != nil {
		return err
	}
	defer rc.Close()
	replies := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			l, err := rc.readLine()
			if err == nil && l != "STORED" {
				err = fmt.Errorf("replied %q", l)
			}
			if err != nil {
				rc.Close() // unblocks the writer
				replies <- fmt.Errorf("preload set %d: %w", i, err)
				return
			}
		}
		replies <- nil
	}()
	var werr error
	for i := 0; i < n && werr == nil; i++ {
		key, value := item(i)
		fmt.Fprintf(rc.w, "set %s 0 0 %d\r\n", key, len(value))
		rc.w.Write(value)
		_, werr = rc.w.WriteString("\r\n")
	}
	if werr == nil {
		werr = rc.w.Flush()
	}
	rerr := <-replies
	if rerr != nil {
		return rerr
	}
	if werr != nil {
		return fmt.Errorf("preload write: %w", werr)
	}
	return nil
}
