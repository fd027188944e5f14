package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/service"
)

// listener is one in-process HTTP server on a loopback port.
type listener struct {
	hs   *http.Server
	url  string
	done chan error
}

func serveLoopback(h http.Handler, errLog io.Writer) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		hs:   &http.Server{Handler: h, ErrorLog: log.New(errLog, "", 0), ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() {
		err := l.hs.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		l.done <- err
	}()
	return l, nil
}

func (l *listener) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serveErr := <-l.done; err == nil {
		err = serveErr
	}
	return err
}

// backend is one in-process service.Server behind its own loopback port.
type backend struct {
	srv  *service.Server
	http *listener
}

// fleet is the serving stack of the serve workloads: a gateway in front of
// two backends, all in this process, talking over loopback HTTP.
type fleet struct {
	backends []*backend
	gw       *listener
	panics   *panicCounter
}

const numBackends = 2

// servingWorkers is the backends' inference and training worker count
// (the benchmark machine has two cores).
const servingWorkers = 2

// startFleet serves each prepared server over loopback and puts a gateway
// in front of them. With a tracer, both tiers are wrapped in span
// middleware and the gateway's backend client records the hop.
func startFleet(servers []*service.Server, tr *tracer) (*fleet, error) {
	f := &fleet{panics: &panicCounter{}}
	var urls []string
	for _, srv := range servers {
		h := srv.Handler()
		if tr != nil {
			h = tr.middleware("service", h)
		}
		l, err := serveLoopback(h, f.panics)
		if err != nil {
			_ = f.close()
			return nil, err
		}
		f.backends = append(f.backends, &backend{srv: srv, http: l})
		urls = append(urls, l.url)
	}
	var transport http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 8, IdleConnTimeout: time.Minute}
	if tr != nil {
		transport = &roundTripper{t: tr, base: transport}
	}
	gw, err := gateway.New(gateway.Options{
		Backends:   urls,
		HTTPClient: &http.Client{Transport: transport, Timeout: time.Minute},
		Registry:   obs.NewRegistry(),
	})
	if err != nil {
		_ = f.close()
		return nil, err
	}
	h := gw.Handler()
	if tr != nil {
		h = tr.middleware("gateway", h)
	}
	if f.gw, err = serveLoopback(h, f.panics); err != nil {
		_ = f.close()
		return nil, err
	}
	return f, nil
}

// stopHTTP stops every listener, leaving the servers themselves open.
func (f *fleet) stopHTTP() error {
	var first error
	if f.gw != nil {
		first = f.gw.close()
		f.gw = nil
	}
	for _, b := range f.backends {
		if b.http != nil {
			if err := b.http.close(); err != nil && first == nil {
				first = err
			}
			b.http = nil
		}
	}
	return first
}

// close stops the listeners and closes every server (a final checkpoint
// and store release for servers with a state directory).
func (f *fleet) close() error {
	first := f.stopHTTP()
	for _, b := range f.backends {
		if err := b.srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// newBackendServer builds an unstarted backend for the given families with
// its own metrics registry.
func newBackendServer(families []string, cfg core.Config) (*service.Server, error) {
	srv, err := service.NewWithRegistry(families, cfg, obs.NewRegistry())
	if err != nil {
		return nil, err
	}
	if err := srv.SetParallelism(servingWorkers); err != nil {
		return nil, err
	}
	return srv, nil
}

// cloneModel round-trips a model through its checkpoint format, giving an
// independent copy with identical weights.
func cloneModel(raw []byte) (*core.Model, error) {
	return core.Load(bytes.NewReader(raw))
}

func saveModel(m *core.Model) ([]byte, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// httpClient is a benchmark client's own connection pool.
func httpClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, IdleConnTimeout: time.Minute}, Timeout: time.Minute}
}

// post sends one JSON body and reads the whole reply.
func post(c *http.Client, url string, body []byte, header string) (status int, reply []byte, cache string, err error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if header != "" {
		req.Header.Set(traceHeader, header)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	reply, err = io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode, reply, resp.Header.Get("X-Magic-Cache"), err
}

// getJSON fetches url and decodes its JSON body into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// healthz is the subset of a backend's or gateway's /healthz body the
// benchmark reads.
type healthz struct {
	Status            string `json:"status"`
	CorpusCompactions int    `json:"corpus_compactions"`
}

// batchSizeMean reads sum/count of magic_predict_batch_size from a
// backend's /metrics exposition.
func batchSizeMean(c *http.Client, url string) (sum, count float64, err error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer func() { _ = resp.Body.Close() }()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		for name, dst := range map[string]*float64{"magic_predict_batch_size_sum": &sum, "magic_predict_batch_size_count": &count} {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				if *dst, err = strconv.ParseFloat(strings.TrimSpace(rest), 64); err != nil {
					return 0, 0, err
				}
			}
		}
	}
	return sum, count, sc.Err()
}
