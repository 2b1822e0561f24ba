package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"

	"repro/internal/block"
)

// httpConn is one keep-alive HTTP/1.1 connection to the front door: a bare
// request writer and response reader on the worker's own goroutine, not
// net/http's client. Generator and cluster share two cores, so what the
// generator burns is in every http_get number. Measured on http_get, eight
// alternating pairs of 15 s runs (seeds 61-68): this client won all eight
// on cpu_ms_per_req, median 0.109 ms against 0.127 ms with http.Client over
// a one-connection Transport (req_per_s 11 850 against 10 700, setup_s 5.4
// against 6.0), with the same spread. net/http's client hands every request
// to a write goroutine and a read goroutine; that is 18 us a GET the server
// under test does not get.
type httpConn struct {
	addr string
	nc   net.Conn // nil after an error: the next get redials
	r    *bufio.Reader
	req  []byte
	body []byte
}

func dialHTTP(addr string) *httpConn { return &httpConn{addr: addr} }

func (c *httpConn) Close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

var contentLength = []byte("content-length:")

// get fetches file f and returns the body, valid until the next call. A
// non-zero spanID travels in the span header. After any error the
// connection is closed, because the reply may be half read, and the next
// call dials a new one.
func (c *httpConn) get(f block.FileID, spanID uint64) ([]byte, error) {
	if c.nc == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return nil, err
		}
		c.nc, c.r = nc, bufio.NewReaderSize(nc, 64<<10)
	}
	body, err := c.roundTrip(f, spanID)
	if err != nil {
		c.Close()
	}
	return body, err
}

func (c *httpConn) roundTrip(f block.FileID, spanID uint64) ([]byte, error) {
	c.req = append(c.req[:0], "GET "+pathPrefix...)
	c.req = strconv.AppendInt(c.req, int64(f), 10)
	c.req = append(c.req, " HTTP/1.1\r\nHost: bench\r\n"...)
	if spanID != 0 {
		c.req = append(c.req, spanHeader+": "...)
		c.req = strconv.AppendUint(c.req, spanID, 10)
		c.req = append(c.req, "\r\n"...)
	}
	c.req = append(c.req, "\r\n"...)
	if _, err := c.nc.Write(c.req); err != nil {
		return nil, err
	}
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(line, []byte("HTTP/1.1 200 ")) {
		return nil, fmt.Errorf("GET %s: %s", filePath(f), bytes.TrimSpace(line))
	}
	length := -1
	for {
		if line, err = c.r.ReadSlice('\n'); err != nil {
			return nil, err
		}
		if len(line) <= 2 {
			break
		}
		if len(line) > len(contentLength) && bytes.EqualFold(line[:len(contentLength)], contentLength) {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(line[len(contentLength):]))); err != nil {
				return nil, err
			}
		}
	}
	if length < 0 {
		return nil, fmt.Errorf("GET %s: no Content-Length", filePath(f))
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	c.body = c.body[:length]
	_, err = io.ReadFull(c.r, c.body)
	return c.body, err
}
