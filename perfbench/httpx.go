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
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
)

// served is one in-process htserved on its own loopback listener,
// speaking HTTP/1.1 and cleartext HTTP/2.
type served struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan struct{}
}

// startServed builds a server, serves it on 127.0.0.1, and waits until
// /v1/healthz answers 200.
func startServed(ctx context.Context, c *http.Client, opts server.Options) (*served, error) {
	srv, err := server.New(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	var p http.Protocols
	p.SetHTTP1(true)
	p.SetUnencryptedHTTP2(true)
	s := &served{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), Protocols: &p},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	if err := waitHealthy(ctx, c, s.base); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close cancels the server's jobs and stops its listener.
func (s *served) close() {
	s.srv.Close()
	s.hs.Close()
	<-s.done
}

// waitHealthy polls /v1/healthz until it answers 200.
func waitHealthy(ctx context.Context, c *http.Client, base string) error {
	for {
		code, _, err := fetch(ctx, c, http.MethodGet, base+"/v1/healthz", "")
		if err == nil && code == http.StatusOK {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s never became healthy: %w", base, ctx.Err())
		case <-time.After(50 * time.Microsecond):
		}
	}
}

// h2cClient returns a client that multiplexes every request over one
// cleartext HTTP/2 connection per server.
func h2cClient() *http.Client {
	var p http.Protocols
	p.SetUnencryptedHTTP2(true)
	return &http.Client{Transport: &http.Transport{Protocols: &p}}
}

// fetch sends one request and reads the whole response.
func fetch(ctx context.Context, c *http.Client, method, url, body string) (int, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// jobStatus is the part of the service's job status the benchmark reads.
type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Cache string `json:"cache"`
	Error string `json:"error"`
}

// submit POSTs a job and returns its status; anything but 202 fails.
func submit(ctx context.Context, c *http.Client, url, body string) (jobStatus, error) {
	code, b, err := fetch(ctx, c, http.MethodPost, url, body)
	if err != nil {
		return jobStatus{}, err
	}
	if code != http.StatusAccepted {
		return jobStatus{}, fmt.Errorf("POST %s: %d %s", url, code, bytes.TrimSpace(b))
	}
	var st jobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return jobStatus{}, fmt.Errorf("POST %s: %w", url, err)
	}
	return st, nil
}

// terminal reports whether a job state is final.
func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "cancelled"
}

// waitTerminal follows a job's Server-Sent Events until its terminal
// state event and returns that state and the number of epoch events seen.
// Event ids must increase.
func waitTerminal(ctx context.Context, c *http.Client, base, id string) (string, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("events of %s: status %d", id, resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	event, lastID, epochs := "", -1, 0
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return "", epochs, fmt.Errorf("events of %s ended before a terminal state: %w", id, err)
		}
		line = strings.TrimSuffix(line, "\n")
		switch {
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.Atoi(line[4:])
			if err != nil || n <= lastID {
				return "", epochs, fmt.Errorf("events of %s: id %q after %d", id, line[4:], lastID)
			}
			lastID = n
		case strings.HasPrefix(line, "event: "):
			event = line[7:]
		case strings.HasPrefix(line, "data: "):
			switch event {
			case "epoch":
				epochs++
			case "state":
				var st jobStatus
				if err := json.Unmarshal([]byte(line[6:]), &st); err != nil {
					return "", epochs, fmt.Errorf("events of %s: %w", id, err)
				}
				if terminal(st.State) {
					if st.State != "done" {
						return st.State, epochs, fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
					}
					return st.State, epochs, nil
				}
			}
		}
	}
}

// getArtifact fetches one artifact of a finished job.
func getArtifact(ctx context.Context, c *http.Client, base, id, name string) ([]byte, error) {
	code, b, err := fetch(ctx, c, http.MethodGet, base+"/v1/jobs/"+id+"/artifacts/"+name, "")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET artifact %s of %s: %d %s", name, id, code, bytes.TrimSpace(b))
	}
	return b, nil
}

// traceNode is the part of the service's span tree the benchmark reads.
type traceNode struct {
	Name            string            `json:"name"`
	DurationSeconds float64           `json:"duration_seconds"`
	Attrs           map[string]string `json:"attrs"`
	Children        []*traceNode      `json:"children"`
}

// walk visits n and its descendants.
func (n *traceNode) walk(fn func(*traceNode)) {
	if n == nil {
		return
	}
	fn(n)
	for _, k := range n.Children {
		k.walk(fn)
	}
}

// jobTrace fetches a job's span tree from GET /v1/jobs/{id}/trace.
func jobTrace(ctx context.Context, c *http.Client, base, id string) (*traceNode, error) {
	code, b, err := fetch(ctx, c, http.MethodGet, base+"/v1/jobs/"+id+"/trace", "")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("trace of %s: %d", id, code)
	}
	var doc struct {
		Root *traceNode `json:"root"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, err
	}
	return doc.Root, nil
}
