// Package client is the Go client for the bidiagd HTTP API (and for
// bidiagrouter, which serves the same surface). It mirrors the
// bidiag.Service entry points — SingularValues, SVD, Stats — over the
// wire types of package httpapi, with typed errors for the daemon's
// backpressure (429) and validation (400) responses. Jobs and their
// answers travel as binary frames (httpapi.BinaryMediaType), so a matrix
// costs 8 bytes an element each way and arrives bit for bit.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"

	"github.com/tiled-la/bidiag"
	"github.com/tiled-la/bidiag/httpapi"
)

// Sentinel errors for errors.Is. Responses carrying these statuses
// always unwrap to an *APIError holding the server's message.
var (
	// ErrOverloaded matches 429: the daemon's admission queues are full.
	// The job was rejected before execution; retrying later is safe.
	ErrOverloaded = errors.New("bidiag client: server overloaded")
	// ErrBadRequest matches 400: the request itself is malformed and
	// retrying it verbatim cannot succeed.
	ErrBadRequest = errors.New("bidiag client: bad request")
)

// APIError is a non-2xx response from the server.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the server's error string (httpapi.ErrorResponse).
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("bidiag client: server returned %d: %s", e.Status, e.Message)
}

// Is maps statuses onto the package's sentinel errors, so callers can
// write errors.Is(err, client.ErrOverloaded) without unwrapping.
func (e *APIError) Is(target error) bool {
	switch target {
	case ErrOverloaded:
		return e.Status == http.StatusTooManyRequests
	case ErrBadRequest:
		return e.Status == http.StatusBadRequest
	}
	return false
}

// IsUnreachable reports whether err means the request never reached a
// server: dial failures, refused connections, unresolvable hosts. The
// router retries exactly this class — the job cannot have started, so a
// retry on another backend is idempotent even for non-idempotent work.
func IsUnreachable(err error) bool {
	var op *net.OpError
	if errors.As(err, &op) {
		return op.Op == "dial"
	}
	var dns *net.DNSError
	return errors.As(err, &dns)
}

// Client talks to one bidiagd (or bidiagrouter) base URL. The zero
// value is not usable; construct with New.
type Client struct {
	base string
	hc   *http.Client
}

// New returns a client for the server at baseURL (e.g.
// "http://127.0.0.1:8080"). The default http.Client is used; replace it
// with WithHTTPClient for custom timeouts or transports.
func New(baseURL string) *Client {
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: http.DefaultClient}
}

// WithHTTPClient returns a copy of c that issues requests through hc.
func (c *Client) WithHTTPClient(hc *http.Client) *Client {
	return &Client{base: c.base, hc: hc}
}

// BaseURL returns the server address the client was built with.
func (c *Client) BaseURL() string { return c.base }

// SingularValues computes the singular values of a on the server.
// A nil opts defers every knob to the server's planner.
func (c *Client) SingularValues(ctx context.Context, a *bidiag.Dense, opts *httpapi.Options) (*httpapi.ValuesResponse, error) {
	return c.PostValues(ctx, httpapi.Job{Matrix: httpapi.FromDense(a), Options: opts}, false)
}

// SVD computes the full decomposition of a on the server.
func (c *Client) SVD(ctx context.Context, a *bidiag.Dense, opts *httpapi.Options) (*httpapi.SVDResponse, error) {
	return c.PostSVD(ctx, httpapi.Job{Matrix: httpapi.FromDense(a), Options: opts}, false)
}

// PostValues submits a wire-form job to POST /v1/singular-values. With
// trace set, the job's timeline is recorded and the response's JobID
// keys Trace.
func (c *Client) PostValues(ctx context.Context, job httpapi.Job, trace bool) (*httpapi.ValuesResponse, error) {
	var out httpapi.ValuesResponse
	if err := c.postJob(ctx, "/v1/singular-values", job, trace, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// PostSVD submits a wire-form job to POST /v1/svd.
func (c *Client) PostSVD(ctx context.Context, job httpapi.Job, trace bool) (*httpapi.SVDResponse, error) {
	var out httpapi.SVDResponse
	if err := c.postJob(ctx, "/v1/svd", job, trace, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats returns the daemon's /debug/vars counters (the "bidiagd"
// document: jobs_done, queue_depth, cache_hit_rate, ...).
func (c *Client) Stats(ctx context.Context) (map[string]any, error) {
	var vars map[string]json.RawMessage
	if err := c.getJSON(ctx, "/debug/vars", &vars); err != nil {
		return nil, err
	}
	raw, ok := vars["bidiagd"]
	if !ok {
		return nil, errors.New("bidiag client: /debug/vars has no bidiagd document")
	}
	var stats map[string]any
	if err := json.Unmarshal(raw, &stats); err != nil {
		return nil, fmt.Errorf("bidiag client: decode stats: %w", err)
	}
	return stats, nil
}

// Healthz returns the liveness document of /healthz.
func (c *Client) Healthz(ctx context.Context) (map[string]any, error) {
	var out map[string]any
	if err := c.getJSON(ctx, "/healthz", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Trace fetches a traced job's timeline as the raw Chrome-tracing JSON
// document served by /debug/trace/{id}.
func (c *Client) Trace(ctx context.Context, jobID string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/debug/trace/"+url.PathEscape(jobID), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	return io.ReadAll(resp.Body)
}

// postJob sends the job, and reads the answer, as one binary frame each
// (httpapi.BinaryMediaType): the matrix and the factors cross the wire
// as raw float64 words. Errors stay JSON.
func (c *Client) postJob(ctx context.Context, path string, job httpapi.Job, trace bool, out any) error {
	blob, err := httpapi.EncodeJob(job)
	if err != nil {
		return err
	}
	u := c.base + path
	if trace {
		u += "?trace=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", httpapi.BinaryMediaType)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	if err := httpapi.DecodeResponse(resp.Body, resp.ContentLength, out); err != nil {
		return fmt.Errorf("bidiag client: decode response: %w", err)
	}
	return nil
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeError lifts a non-2xx response to an *APIError, preserving the
// server's message when the body is a well-formed httpapi.ErrorResponse.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var er httpapi.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		er.Error = strings.TrimSpace(string(body))
	}
	return &APIError{Status: resp.StatusCode, Message: er.Error}
}
