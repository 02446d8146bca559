package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// sliceRec is one coordinator-to-worker slice seen by a timing proxy.
type sliceRec struct {
	Start, End time.Time
	Bytes      int64 // request plus response body bytes
	Items      int
	Key        string // content of the slice: params and item specs
}

// timingProxy sits between the coordinator and one worker (the worker
// advertises the proxy's address), timing and sizing every slice.
type timingProxy struct {
	target string
	url    string
	srv    *http.Server
	cl     *http.Client
	served chan struct{} // closed when Serve has returned
	mu     sync.Mutex
	slices []sliceRec
}

// startProxy listens on a loopback port and forwards to target.
func startProxy(port int, target string) (*timingProxy, error) {
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		return nil, err
	}
	p := &timingProxy{
		target: target,
		url:    "http://" + ln.Addr().String(),
		cl:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}},
		served: make(chan struct{}),
	}
	p.srv = &http.Server{Handler: p, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(p.served)
		_ = p.srv.Serve(ln) // always ErrServerClosed, after close
	}()
	return p, nil
}

func (p *timingProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	out, err := http.NewRequestWithContext(r.Context(), r.Method, p.target+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	out.Header = r.Header.Clone()
	resp, err := p.cl.Do(out)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		w.Header()[k] = vs
	}
	w.WriteHeader(resp.StatusCode)
	n, _ := io.Copy(w, resp.Body) // a broken reply shows as a failed slice at the coordinator
	if r.URL.Path != "/v1/worker/run" {
		return
	}
	items, key := sliceContent(body)
	p.mu.Lock()
	p.slices = append(p.slices, sliceRec{Start: t0, End: time.Now(), Bytes: int64(len(body)) + n, Items: items, Key: key})
	p.mu.Unlock()
}

// sliceContent counts a slice's items and fingerprints what it asks for,
// leaving out trace context, so a hedged copy of a slice has the same key.
func sliceContent(body []byte) (int, string) {
	var req struct {
		Params json.RawMessage `json:"params"`
		Items  []struct {
			Spec    json.RawMessage `json:"spec"`
			Scaling json.RawMessage `json:"scaling"`
		} `json:"items"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return 0, sha(string(body))
	}
	var b bytes.Buffer
	b.Write(req.Params)
	for _, it := range req.Items {
		b.Write(it.Spec)
		b.Write(it.Scaling)
	}
	return len(req.Items), sha(b.String())
}

func (p *timingProxy) recorded() []sliceRec {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]sliceRec(nil), p.slices...)
}

// close stops the proxy and waits for its listener goroutine.
func (p *timingProxy) close() {
	_ = p.srv.Close() // only reports listener close errors
	<-p.served
	p.cl.CloseIdleConnections()
}
