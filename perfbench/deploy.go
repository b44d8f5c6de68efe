package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"exysim/internal/fabric"
	"exysim/internal/serve"
)

// deployment is an in-process exyserve topology: servers behind
// loopback listeners, the first of which the load generator talks to,
// plus any fabric workers joined to it over HTTP.
type deployment struct {
	url      string
	servers  []*serve.Server
	https    []*http.Server
	serving  sync.WaitGroup
	workers  []*fabric.Worker
	stopWork context.CancelFunc
	working  sync.WaitGroup
}

// listen serves srv on a loopback port and returns its base URL.
func (d *deployment) listen(srv *serve.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	d.servers = append(d.servers, srv)
	d.https = append(d.https, hs)
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// startDaemon starts one exyserve with no workers.
func startDaemon(cfg serve.Config) (*deployment, error) {
	d := &deployment{}
	url, err := d.listen(serve.New(cfg))
	if err != nil {
		d.close()
		return nil, err
	}
	d.url = url
	return d, nil
}

// startLab starts a coordinator and n fabric workers that join it over
// HTTP the way `exyserve --worker --join` does, each computing shards
// with one sweep goroutine under its own warm-snapshot budget. Shards
// of shardSlices slices let the workers balance an op's M7 column
// between them.
func startLab(n, shardSlices int, workerBudget int64) (*deployment, error) {
	d := &deployment{}
	coord := serve.New(serve.Config{FabricShardSlices: shardSlices})
	url, err := d.listen(coord)
	if err != nil {
		d.close()
		return nil, err
	}
	d.url = url
	ctx, stop := context.WithCancel(context.Background())
	d.stopWork = stop
	for i := 0; i < n; i++ {
		ws := serve.New(serve.Config{SweepParallelism: 1, SnapshotBudget: workerBudget})
		if _, err := d.listen(ws); err != nil {
			d.close()
			return nil, err
		}
		ws.SetTraceFetcher(serve.HTTPTraceFetcher(url))
		fw := fabric.NewWorker(fabric.NewClient(url), fmt.Sprintf("bench-worker-%d", i), ws.ShardRunner())
		d.workers = append(d.workers, fw)
		d.working.Add(1)
		go func() {
			defer d.working.Done()
			_ = fw.Run(ctx) // returns ctx.Err() at close
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for coord.Fabric().LiveWorkers() < n {
		if time.Now().After(deadline) {
			d.close()
			return nil, fmt.Errorf("fabric workers did not join within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	return d, nil
}

// close stops the workers (handing their leases back), drains every
// server, and waits for all goroutines the deployment started.
func (d *deployment) close() error {
	var errs []error
	if d.stopWork != nil {
		d.stopWork()
		d.working.Wait()
		for _, w := range d.workers {
			if err := w.Release(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// Workers first, the coordinator (index 0) last.
	for i := len(d.servers) - 1; i >= 0; i-- {
		if err := d.servers[i].Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
		if err := d.https[i].Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	d.serving.Wait()
	return errors.Join(errs...)
}

// client is one closed-loop load generator holding one connection.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{
		Timeout: 170 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
		},
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// jobView is the part of exyserve's job view the benchmark reads.
type jobView struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Cached bool            `json:"cached"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// jobOutcome is one job's result and client-side spans.
type jobOutcome struct {
	result      json.RawMessage
	cached      bool
	submitStart time.Time
	submitEnd   time.Time
	streamEnd   time.Time // == submitEnd for a cache hit
}

// run submits one job and waits on the terminal frame of its progress
// stream, so no polling interval enters the measured time. A non-2xx
// answer, or a job that ends failed or canceled, is an error.
func (c *client) run(body []byte) (jobOutcome, error) {
	var out jobOutcome
	out.submitStart = time.Now()
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, fmt.Errorf("submit: %w", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.submitEnd = time.Now()
	out.streamEnd = out.submitEnd
	if err != nil {
		return out, fmt.Errorf("submit: %w", err)
	}
	var v jobView
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
		if err := json.Unmarshal(data, &v); err != nil {
			return out, fmt.Errorf("submit: %w", err)
		}
	default:
		return out, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if resp.StatusCode == http.StatusAccepted {
		if v, err = c.wait(v.ID); err != nil {
			return out, err
		}
		out.streamEnd = time.Now()
	}
	if v.Status != "done" {
		return out, fmt.Errorf("job %s ended %s: %s", v.ID, v.Status, v.Error)
	}
	out.result, out.cached = v.Result, v.Cached
	return out, nil
}

// wait reads the job's JSONL stream up to its terminal "result" frame.
func (c *client) wait(id string) (jobView, error) {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return jobView{}, fmt.Errorf("stream %s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return jobView{}, fmt.Errorf("stream %s: HTTP %d: %s", id, resp.StatusCode, bytes.TrimSpace(b))
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var e struct {
				Type string   `json:"type"`
				Job  *jobView `json:"job"`
			}
			if jerr := json.Unmarshal(line, &e); jerr != nil {
				return jobView{}, fmt.Errorf("stream %s: %w", id, jerr)
			}
			if e.Type == "result" && e.Job != nil {
				// Drain the (already finished) stream so the connection
				// goes back to the pool for the next op.
				_, _ = io.Copy(io.Discard, br)
				return *e.Job, nil
			}
		}
		if err != nil {
			return jobView{}, fmt.Errorf("stream %s ended without a result frame: %w", id, err)
		}
	}
}

// upload posts a ChampSim trace and returns the stored population's
// metadata.
func (c *client) upload(query string, body []byte) (uploadDoc, error) {
	var doc uploadDoc
	resp, err := c.http.Post(c.base+"/v1/traces?"+query, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return doc, fmt.Errorf("upload: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return doc, fmt.Errorf("upload: %w", err)
	}
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("upload: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("upload: %w", err)
	}
	return doc, nil
}

type uploadDoc struct {
	Meta struct {
		ID     string `json:"id"`
		Slices []struct {
			Insts  int `json:"insts"`
			Warmup int `json:"warmup"`
		} `json:"slices"`
	} `json:"meta"`
}

// measuredInsts is the population's post-warmup instruction count.
func (u uploadDoc) measuredInsts() int {
	n := 0
	for _, s := range u.Meta.Slices {
		n += s.Insts - s.Warmup
	}
	return n
}

// jobsRetained is the length of GET /v1/jobs: every job the daemon
// still tracks.
func (c *client) jobsRetained() (int, error) {
	resp, err := c.http.Get(c.base + "/v1/jobs")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var l struct {
		Jobs []json.RawMessage `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
		return 0, err
	}
	return len(l.Jobs), nil
}
