package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// wire is a minimal HTTP/1.1 client over one keep-alive TCP connection.
// net/http's client hands every request across two goroutines and allocates
// a few dozen objects for it; on a two-core box that sits on the same cores
// as the server and lands in the latencies. This one writes the request
// with one write, parses the status line, Content-Length or chunked body,
// and nothing else — all the served API needs.
type wire struct {
	addr string // host:port
	c    net.Conn
	br   *bufio.Reader
	out  []byte
	body []byte
}

func (w *wire) close() {
	if w.c != nil {
		w.c.Close()
		w.c = nil
	}
}

func (w *wire) dial() error {
	c, err := net.DialTimeout("tcp", w.addr, 5*time.Second)
	if err != nil {
		return err
	}
	w.c = c
	if w.br == nil {
		w.br = bufio.NewReaderSize(c, 64<<10)
	} else {
		w.br.Reset(c)
	}
	return nil
}

// do sends one request and returns the status code and the body, which is
// only valid until the next call.
func (w *wire) do(method, path, tenant string, body []byte) (int, []byte, error) {
	if w.c == nil {
		if err := w.dial(); err != nil {
			return 0, nil, err
		}
	}
	b := w.out[:0]
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, w.addr...)
	b = append(b, "\r\n"+tenantHeader+": "...)
	b = append(b, tenant...)
	if body != nil {
		b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
	}
	b = append(b, "\r\n\r\n"...)
	b = append(b, body...)
	w.out = b
	code, respBody, err := w.exchange()
	if err != nil {
		w.close()
	}
	return code, respBody, err
}

func (w *wire) exchange() (int, []byte, error) {
	if err := w.c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := w.c.Write(w.out); err != nil {
		return 0, nil, err
	}
	line, err := w.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	code, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked, closing := -1, false, false
	for {
		line, err := w.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		value = bytes.TrimSpace(value)
		switch strings.ToLower(string(name)) {
		case "content-length":
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, nil, fmt.Errorf("malformed Content-Length %q", value)
			}
		case "transfer-encoding":
			chunked = bytes.EqualFold(value, []byte("chunked"))
		case "connection":
			closing = bytes.EqualFold(value, []byte("close"))
		}
	}
	w.body = w.body[:0]
	switch {
	case chunked:
		for {
			line, err := w.br.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			size, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 32)
			if err != nil {
				return 0, nil, fmt.Errorf("malformed chunk size %q", line)
			}
			if err := w.readN(int(size) + 2); err != nil { // chunk + CRLF
				return 0, nil, err
			}
			w.body = w.body[:len(w.body)-2]
			if size == 0 {
				break
			}
		}
	case length >= 0:
		if err := w.readN(length); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, errors.New("response has neither Content-Length nor chunked encoding")
	}
	if closing {
		w.close()
	}
	return code, w.body, nil
}

// readN appends the next n bytes of the stream to w.body.
func (w *wire) readN(n int) error {
	start := len(w.body)
	if cap(w.body) < start+n {
		grown := make([]byte, start, start+n+4096)
		copy(grown, w.body)
		w.body = grown
	}
	w.body = w.body[:start+n]
	_, err := io.ReadFull(w.br, w.body[start:])
	return err
}
