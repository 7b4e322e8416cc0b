package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// reqTimeout bounds one request; a request that exceeds it fails.
const reqTimeout = 5 * time.Second

// client is the load generator: a fixed set of keep-alive HTTP/1.1
// connections, one per worker, and no goroutine per request. Requests
// wait client-side, in schedule order, for a free connection.
type client struct {
	base   string
	conns  []*http.Client
	traced bool
	ids    atomic.Uint64
}

func newClient(addr string, conns int, traced bool) *client {
	c := &client{base: "http://" + addr, traced: traced}
	for range conns {
		c.conns = append(c.conns, &http.Client{
			Timeout: reqTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return c
}

func (c *client) close() {
	for _, hc := range c.conns {
		hc.CloseIdleConnections()
	}
}

// sample is one request as the generator saw it. In the paced phase
// due is the schedule time, wait the time the request waited for a free
// connection, and lag how late the worker's timer fired; latency runs
// from due. In the saturation phase due is the send time.
type sample struct {
	c          *call
	id         uint64
	due, sent  time.Time
	done       time.Time
	wait, lag  time.Duration
	out        outcome
	epoch      uint64
	hits       []serve.ClassifyHit
	statusCode int
}

func (s *sample) latencyMS() float64 { return float64(s.done.Sub(s.due)) / 1e6 }

// send performs one request on hc and classifies the result. The oracle
// check happens later: an accepted response is outOK until then.
func (c *client) send(hc *http.Client, s *sample) {
	req, err := http.NewRequest(http.MethodPost, c.base+kindPaths[s.c.kind], bytes.NewReader(s.c.body))
	if err != nil {
		s.out = outTransport
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if c.traced {
		s.id = c.ids.Add(1)
		req.Header.Set(reqHeader, strconv.FormatUint(s.id, 10))
	}
	s.sent = time.Now()
	res, err := hc.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(res.Body)
		res.Body.Close()
	}
	s.done = time.Now()
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			s.out = outTimeout
		} else {
			s.out = outTransport
		}
		return
	}
	s.statusCode = res.StatusCode
	switch {
	case res.StatusCode == http.StatusTooManyRequests:
		s.out = outShed
		return
	case res.StatusCode != http.StatusOK:
		s.out = outStatus
		return
	}
	var r struct {
		Epoch uint64              `json:"epoch"`
		TopK  []serve.ClassifyHit `json:"topk"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		s.out = outTransport
		return
	}
	s.epoch, s.hits = r.Epoch, r.TopK
	s.out = outOK
}

// paced runs an absolute open-loop schedule starting at start. Workers
// take arrivals in schedule order as their connection frees up.
func (c *client) paced(start time.Time, arr []arrival) []sample {
	out := make([]sample, len(arr))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, hc := range c.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arr) {
					return
				}
				s := &out[i]
				s.c, s.due = arr[i].c, start.Add(arr[i].due)
				if d := time.Until(s.due); d > 0 {
					time.Sleep(d)
					s.lag = time.Since(s.due)
				} else {
					s.wait = -d
				}
				c.send(hc, s)
			}
		}()
	}
	wg.Wait()
	return out
}

// saturate has every connection send back to back for d, each drawing
// requests from pool with its own seeded generator.
func (c *client) saturate(d time.Duration, pool []*call, seed int64) ([]sample, time.Duration) {
	start := time.Now()
	end := start.Add(d)
	outs := make([][]sample, len(c.conns))
	var wg sync.WaitGroup
	for w, hc := range c.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000003 + int64(w)))
			for time.Now().Before(end) {
				s := sample{c: pool[rng.Intn(len(pool))]}
				c.send(hc, &s)
				s.due = s.sent
				outs[w] = append(outs[w], s)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, o := range outs {
		all = append(all, o...)
	}
	return all, elapsed
}

// serial sends calls one at a time on the first connection.
func (c *client) serial(calls []*call) []sample {
	out := make([]sample, len(calls))
	for i, cl := range calls {
		out[i].c = cl
		c.send(c.conns[0], &out[i])
		out[i].due = out[i].sent
	}
	return out
}

// toggleTrace switches the serving process's tracing on or off.
func (c *client) toggleTrace(on bool) error {
	res, err := c.conns[0].Post(c.base+"/bench/trace?on="+strconv.FormatBool(on), "application/json", nil)
	if err != nil {
		return err
	}
	res.Body.Close()
	if res.StatusCode != http.StatusNoContent {
		return errors.New("trace toggle: " + res.Status)
	}
	return nil
}
