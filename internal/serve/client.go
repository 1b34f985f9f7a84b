package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"autogemm"
)

// Client is a minimal typed client for the serving API — what the
// bench load harness and the e2e tests drive requests through. Its
// error mapping (ErrorForStatus) is the inverse of autogemm.HTTPStatus,
// so sentinel identities round-trip the HTTP boundary: a 429 body
// comes back as an error matching autogemm.ErrAdmission, a 504 as
// context.DeadlineExceeded, and a 422 as autogemm.ErrBadPlan, or as
// ErrNonFinite when the result could not be sent.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8097".
	Base string
	// Tenant, when non-empty, is sent as the TenantHeader on every
	// request.
	Tenant string
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// ErrorForStatus reconstructs the engine-side error identity from an
// HTTP status — the inverse of autogemm.HTTPStatus. The msg (typically
// the server's error body) is preserved in the message; the returned
// error matches the corresponding sentinel via errors.Is. A 422 whose
// msg starts with ErrNonFinite's text matches ErrNonFinite instead of
// autogemm.ErrBadPlan.
func ErrorForStatus(status int, msg string) error {
	switch status {
	case http.StatusOK:
		return nil
	case http.StatusTooManyRequests:
		return fmt.Errorf("serve: %s: %w", msg, autogemm.ErrAdmission)
	case http.StatusGatewayTimeout:
		return fmt.Errorf("serve: %s: %w", msg, context.DeadlineExceeded)
	case StatusClientClosedRequest:
		return fmt.Errorf("serve: %s: %w", msg, context.Canceled)
	case http.StatusUnprocessableEntity:
		if rest, ok := strings.CutPrefix(msg, ErrNonFinite.Error()); ok {
			return fmt.Errorf("%w%s", ErrNonFinite, rest)
		}
		return fmt.Errorf("serve: %s: %w", msg, autogemm.ErrBadPlan)
	case http.StatusServiceUnavailable:
		return fmt.Errorf("serve: %s: %w", msg, autogemm.ErrClosed)
	default:
		return fmt.Errorf("serve: http %d: %s", status, msg)
	}
}

// StatusClientClosedRequest mirrors autogemm.StatusClientClosedRequest
// for callers that only import the client.
const StatusClientClosedRequest = autogemm.StatusClientClosedRequest

func (c *Client) post(ctx context.Context, path string, body interface{}) (*http.Response, error) {
	buf, err := marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.Tenant != "" {
		req.Header.Set(TenantHeader, c.Tenant)
	}
	return c.httpClient().Do(req)
}

// errorFromResponse decodes a non-2xx body into its sentinel-matching
// error form.
func errorFromResponse(resp *http.Response) error {
	var er ErrorResponse
	msg := resp.Status
	if err := json.NewDecoder(resp.Body).Decode(&er); err == nil && er.Error != "" {
		msg = er.Error
	}
	return ErrorForStatus(resp.StatusCode, msg)
}

// Multiply runs one C += A·B through POST /v1/multiply and returns the
// result matrix. deadlineMs <= 0 means the tenant's default deadline.
func (c *Client) Multiply(ctx context.Context, m, n, k int, a, b []float32, deadlineMs int) ([]float32, error) {
	resp, err := c.post(ctx, "/v1/multiply", &GEMMRequest{M: m, N: n, K: k, A: a, B: b, DeadlineMs: deadlineMs})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, errorFromResponse(resp)
	}
	mr, err := decodeFirst(resp.Body, func(mr *MultiplyResponse, r *wireReader) bool { return mr.read(r, m, n) })
	if err != nil {
		return nil, fmt.Errorf("serve: bad response body: %w", err)
	}
	return mr.C, nil
}

// Batch runs elements through POST /v1/batch and returns one BatchLine
// per element, re-indexed into submission order (the server streams
// them in completion order).
func (c *Client) Batch(ctx context.Context, elements []GEMMRequest) ([]BatchLine, error) {
	resp, err := c.post(ctx, "/v1/batch", &BatchRequest{Elements: elements})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, errorFromResponse(resp)
	}
	lines := make([]BatchLine, len(elements))
	seen := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		line, err := decodeLine(sc.Bytes())
		if err != nil {
			return nil, fmt.Errorf("serve: bad batch line: %w", err)
		}
		if line.Index < 0 || line.Index >= len(elements) {
			return nil, fmt.Errorf("serve: batch line index %d out of range", line.Index)
		}
		lines[line.Index] = line
		seen++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("serve: reading batch stream: %w", err)
	}
	if seen != len(elements) {
		return nil, fmt.Errorf("serve: batch stream returned %d of %d lines", seen, len(elements))
	}
	return lines, nil
}

// Err converts a BatchLine into its element error (nil on success),
// preserving sentinel identity through ErrorForStatus.
func (l BatchLine) Err() error {
	if l.Error == "" {
		return nil
	}
	return ErrorForStatus(l.Status, l.Error)
}

// ConfigureClass retunes one scheduling class through POST /v1/classes
// and returns the class's post-retune counters. The weight/depth
// semantics are Engine.ConfigureClass's: weight <= 0 keeps, depth 0
// keeps, depth < 0 clears.
func (c *Client) ConfigureClass(ctx context.Context, class string, weight, depth int) (autogemm.SchedClassStats, error) {
	resp, err := c.post(ctx, "/v1/classes", ClassUpdate{Class: class, Weight: weight, Depth: depth})
	if err != nil {
		return autogemm.SchedClassStats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return autogemm.SchedClassStats{}, errorFromResponse(resp)
	}
	var cs autogemm.SchedClassStats
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		return autogemm.SchedClassStats{}, fmt.Errorf("serve: bad response body: %w", err)
	}
	return cs, nil
}

// Classes snapshots every scheduling class's counters through
// GET /v1/classes.
func (c *Client) Classes(ctx context.Context) ([]autogemm.SchedClassStats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/classes", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, errorFromResponse(resp)
	}
	var out []autogemm.SchedClassStats
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("serve: bad response body: %w", err)
	}
	return out, nil
}

// Metrics fetches the raw /metrics text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", errorFromResponse(resp)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}
