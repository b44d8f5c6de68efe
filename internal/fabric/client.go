package fabric

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// requestTimeout bounds one fabric request, on top of however long a
// lease was asked to wait for work.
const requestTimeout = 2 * time.Minute

// Client implements Coord over the coordinator's HTTP fabric
// endpoints. The transport keeps connections alive and reuses them
// across the worker's lease/heartbeat/complete traffic, and shard
// result uploads — the one large payload in the protocol — are
// gzip-encoded.
type Client struct {
	base string
	http *http.Client
}

// NewClient creates a client for a coordinator at base (e.g.
// "http://127.0.0.1:8080").
func NewClient(base string) *Client {
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return &Client{
		base: base,
		http: &http.Client{
			Transport: &http.Transport{
				// A worker talks to exactly one coordinator: let every
				// request reuse the same warm connections instead of
				// paying a handshake per request.
				MaxIdleConns:        8,
				MaxIdleConnsPerHost: 8,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}
}

// Join implements Coord.
func (c *Client) Join(req JoinRequest) (JoinDoc, error) {
	var doc JoinDoc
	err := c.post("/v1/fabric/join", req, &doc, false)
	return doc, err
}

// Lease implements Coord; a 204 from the coordinator becomes a nil
// grant. The request carries ctx, so canceling it abandons a parked
// lease, and its timeout starts counting only after the wait.
func (c *Client) Lease(ctx context.Context, workerID string, wait time.Duration) (*Grant, error) {
	req := LeaseRequest{WorkerID: workerID}
	if wait > 0 {
		// Round up, so a sub-millisecond wait still waits.
		req.WaitMillis = int64((wait + time.Millisecond - 1) / time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(ctx, max(wait, 0)+requestTimeout)
	defer cancel()
	var g Grant
	ok, err := c.do(ctx, "/v1/fabric/lease", req, &g, false)
	if err != nil || !ok {
		return nil, err
	}
	return &g, nil
}

// Complete implements Coord, gzip-encoding the shard document upload.
func (c *Client) Complete(req CompleteRequest) error {
	return c.post("/v1/fabric/complete", req, nil, true)
}

// Heartbeat implements Coord.
func (c *Client) Heartbeat(req HeartbeatRequest) error {
	return c.post("/v1/fabric/heartbeat", req, nil, false)
}

// Leave implements Coord.
func (c *Client) Leave(req LeaveRequest) error {
	return c.post("/v1/fabric/leave", req, nil, false)
}

// post sends body as JSON (gzip-compressed when gz) and decodes the
// response into out when out is non-nil.
func (c *Client) post(path string, body, out any, gz bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	ok, err := c.do(ctx, path, body, out, gz)
	if err == nil && !ok && out != nil {
		return fmt.Errorf("fabric: %s returned no body", path)
	}
	return err
}

// do sends one request and reports whether a response body was decoded
// into out; a 204 (no content) answers false with no error.
func (c *Client) do(ctx context.Context, path string, body, out any, gz bool) (bool, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return false, err
	}
	var payload io.Reader = bytes.NewReader(raw)
	if gz {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(raw); err != nil {
			return false, err
		}
		if err := zw.Close(); err != nil {
			return false, err
		}
		payload = &buf
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, payload)
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	if gz {
		req.Header.Set("Content-Encoding", "gzip")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return false, err
	}
	defer func() {
		// Drain so the keep-alive connection returns to the pool.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusNoContent:
		return false, nil
	case resp.StatusCode == http.StatusGone:
		return false, ErrUnknownWorker
	case resp.StatusCode == http.StatusConflict:
		return false, ErrVersionSkew
	case resp.StatusCode != http.StatusOK:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return false, fmt.Errorf("fabric: %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		return true, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return false, fmt.Errorf("fabric: %s: decoding response: %w", path, err)
	}
	return true, nil
}

var _ Coord = (*Client)(nil)
