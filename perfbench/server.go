package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"searchspace/internal/obs"
	"searchspace/internal/service"
	"searchspace/internal/store"
)

// daemonDefaults mirrors cmd/spaced's flag defaults, so the in-process
// server behaves as the shipped daemon does.
func daemonDefaults() service.RegistryConfig {
	return service.RegistryConfig{
		MaxEntries: 128, MaxBytes: 4 << 30,
		MaxCartesian: 1e12, MaxExhaustiveCartesian: 1e8,
		MaxConcurrentBuilds: 4,
	}
}

// daemon is the spaced handler served over loopback TCP inside the
// benchmark's own process.
type daemon struct {
	reg      *service.Registry
	http     *http.Server
	addr     string
	served   chan error
	storeDir string
}

// startDaemon serves service.NewServerObs with the daemon's default
// observability settings on 127.0.0.1:0. With st set, the registry
// demotes evicted spaces to a snapshot store in st.Dir; close removes
// the directory. A non-nil rec wraps the handler so traced requests get
// a handler span.
func startDaemon(cfg service.RegistryConfig, st *store.Config, rec *recorder) (*daemon, error) {
	var storeDir string
	if st != nil {
		storeDir = st.Dir
		blobs, err := store.Open(*st)
		if err != nil {
			os.RemoveAll(storeDir)
			return nil, fmt.Errorf("open snapshot store: %w", err)
		}
		cfg.Store = blobs
	}
	reg := service.NewRegistry(cfg)
	srv := service.NewServerObs(reg, service.SessionConfig{MaxSessions: 4096, TTL: 30 * time.Minute},
		service.ObsConfig{TraceBuffer: 512, EventBuffer: 1024,
			Logger: obs.NewLogger(os.Stderr, "text", slog.LevelInfo)})
	var h http.Handler = srv
	if rec != nil {
		h = handlerSpans{next: srv, rec: rec}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(storeDir)
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		reg:      reg,
		http:     &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		addr:     ln.Addr().String(),
		served:   make(chan error, 1),
		storeDir: storeDir,
	}
	go func() { d.served <- d.http.Serve(ln) }()
	return d, nil
}

// close stops the server, waits for its serve loop and for every
// construction or restore still running in the registry, then removes
// the snapshot directory. It is safe to call on every exit path.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	for len(d.reg.ActiveOps()) > 0 {
		if ctx.Err() != nil {
			err = errors.Join(err, fmt.Errorf("registry still busy after shutdown"))
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if d.storeDir != "" {
		if rerr := os.RemoveAll(d.storeDir); rerr != nil {
			err = errors.Join(err, fmt.Errorf("remove snapshot store: %w", rerr))
		}
	}
	return err
}

// serving is a started daemon and the benchmark's client of it.
type serving struct {
	d *daemon
	c *client
}

func serve(cfg service.RegistryConfig, st *store.Config, clients int, rec *recorder) (serving, error) {
	d, err := startDaemon(cfg, st, rec)
	if err != nil {
		return serving{}, err
	}
	return serving{d: d, c: newClient(d.addr, clients, rec)}, nil
}

// close closes the client's idle connections and then the daemon. It
// is a no-op on a zero serving.
func (s serving) close() error {
	if s.d == nil {
		return nil
	}
	s.c.close()
	return s.d.close()
}

// client is a closed-loop HTTP client with at most conns connections.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	base string
	rec  *recorder
}

func newClient(addr string, conns int, rec *recorder) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr}, tr: tr, base: "http://" + addr, rec: rec}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// errStatus is a response outside 2xx.
type errStatus struct {
	code int
	body string
}

func (e errStatus) Error() string { return fmt.Sprintf("status %d: %s", e.code, e.body) }

// call sends one request and decodes a 2xx JSON answer into out, or
// stores the raw body when out is a *[]byte. It returns the client-observed round trip. When tracing is
// on it records an "http.<route>" span whose id travels as the request's
// X-Request-ID.
func (c *client) call(ctx context.Context, route, method, path string, body []byte, out any) (time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	var id uint64
	if c.rec.enabled() {
		id = c.rec.newID()
		req.Header.Set("X-Request-ID", requestID(id))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return time.Since(start), err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if id != 0 {
		c.rec.add(span{ID: id, Name: "http." + route, RequestID: requestID(id),
			Start: c.rec.since(start), End: c.rec.since(end)})
	}
	rtt := end.Sub(start)
	if err != nil {
		return rtt, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return rtt, fmt.Errorf("%s %s: %w", method, path, errStatus{resp.StatusCode, string(raw)})
	}
	switch v := out.(type) {
	case nil:
	case *[]byte:
		*v = raw
	default:
		if err := json.Unmarshal(raw, out); err != nil {
			return rtt, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return rtt, nil
}

// buildBody is the POST /v1/spaces payload for a definition.
func buildBody(def *service.ProblemDoc) ([]byte, error) {
	return json.Marshal(service.BuildRequest{Problem: def})
}
