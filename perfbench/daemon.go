package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/service"
)

// daemon is the sizing daemon served in-process on a loopback listener,
// so the load generator and the server share one process.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	base   string
	dir    string
	served chan error
}

// startDaemon starts a server over a fresh state directory under root.
func startDaemon(root, name string, opt service.Options) (*daemon, error) {
	dir := filepath.Join(root, name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	opt.StateDir = dir
	srv, err := service.New(opt)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Kill()
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		dir:    dir,
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	srv.Start()
	return d, nil
}

// stop shuts the listener and the server down, waits for both, and
// removes the state directory.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errShut := d.hs.Shutdown(ctx)
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		errShut = errors.Join(errShut, err)
	}
	errDrain := d.srv.Drain(ctx)
	return errors.Join(errShut, errDrain, os.RemoveAll(d.dir))
}

// client is one HTTP connection to the daemon.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

// close drops the client's idle connection.
func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one JSON request and decodes a 2xx reply into out. It
// returns the HTTP status; an error means no usable reply arrived.
func (c *client) do(method, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s %s: %w", method, path, err)
		}
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// refusal reports the admission statuses: queue or roster full (429),
// circuit too large (413) and draining (503).
func refusal(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusRequestEntityTooLarge ||
		code == http.StatusServiceUnavailable
}
