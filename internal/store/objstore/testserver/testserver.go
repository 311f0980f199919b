// Package testserver is an in-process S3-compatible object store with a
// chaos panel: the subset of the S3 REST API the objstore client speaks
// (GET/PUT/DELETE object, If-None-Match conditional PUT, x-amz-copy-source
// COPY, ListObjectsV2 with continuation tokens), plus fault switches that
// make it drop connections, delay responses, truncate bodies mid-transfer,
// answer 5xx, serve corrupted bytes, or play dead entirely.
//
// It exists so the network-robustness story — retries, hedged reads, the
// circuit breaker, quarantine-over-network, degrade-to-recompile — can be
// tested hermetically, with no real network and no external service. The
// objstore unit tests, regenserve's object-store tests and the engine's
// two-node test use it; no production binary links it.
package testserver

import (
	"encoding/xml"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Fault selects a failure behavior for matching requests.
type Fault int

// The supported faults.
const (
	// FaultNone serves normally.
	FaultNone Fault = iota
	// FaultError5xx answers 503 Service Unavailable.
	FaultError5xx
	// FaultDrop severs the TCP connection without writing a response.
	FaultDrop
	// FaultDelay sleeps Config.Delay before serving normally.
	FaultDelay
	// FaultTruncate declares the full Content-Length but writes only half
	// the body, so the client sees an unexpected EOF mid-transfer.
	FaultTruncate
	// FaultCorrupt serves the blob with bytes flipped (GET only; other verbs
	// serve normally). The snapshot verifier must catch this.
	FaultCorrupt
	// FaultDead severs every connection — the store is gone.
	FaultDead
)

// Config is the chaos panel, swapped atomically with Server.SetFault.
type Config struct {
	// Mode is applied to requests whose method matches Methods (all methods
	// when empty).
	Mode Fault
	// Methods restricts the fault to these HTTP methods ("GET", "PUT", ...).
	Methods []string
	// Delay is the per-request sleep for FaultDelay.
	Delay time.Duration
	// Times caps how many requests the fault fires on (0 = unlimited).
	Times int
}

func (c Config) matches(method string) bool {
	if c.Mode == FaultNone {
		return false
	}
	if len(c.Methods) == 0 {
		return true
	}
	for _, m := range c.Methods {
		if strings.EqualFold(m, method) {
			return true
		}
	}
	return false
}

// Counters is a snapshot of the server's request accounting.
type Counters struct {
	// Requests counts every request received, faulted or not.
	Requests int
	// Creates counts PUTs that stored a NEW object (conditional PUTs that
	// lost with 412 do not count) — the number the two-node concurrent
	// write-back test asserts is exactly 1.
	Creates int
	// Faulted counts requests a fault fired on.
	Faulted int
}

// Server is the in-memory object store.
type Server struct {
	hs *httptest.Server

	mu      sync.Mutex
	objects map[string][]byte // bucket/key → bytes
	fault   Config
	fired   int
	ctr     Counters
}

// New starts a server on a loopback port. Close it when done.
func New() *Server {
	s := &Server{objects: make(map[string][]byte)}
	s.hs = httptest.NewServer(http.HandlerFunc(s.handle))
	return s
}

// URL returns the server's base endpoint (http://127.0.0.1:port).
func (s *Server) URL() string { return s.hs.URL }

// Close shuts the server down.
func (s *Server) Close() { s.hs.Close() }

// SetFault installs cfg as the active fault (resetting its Times budget);
// SetFault(Config{}) heals the server.
func (s *Server) SetFault(cfg Config) {
	s.mu.Lock()
	s.fault = cfg
	s.fired = 0
	s.mu.Unlock()
}

// CountersSnapshot returns current request accounting.
func (s *Server) CountersSnapshot() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctr
}

// ObjectCount returns how many objects the store holds.
func (s *Server) ObjectCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objects)
}

// Object returns the stored bytes for bucket/key and whether it exists.
func (s *Server) Object(bucket, key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.objects[bucket+"/"+key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), b...), true
}

// Keys returns the sorted keys stored under bucket.
func (s *Server) Keys(bucket string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var keys []string
	for k := range s.objects {
		if b, key, ok := strings.Cut(k, "/"); ok && b == bucket {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	return keys
}

// takeFault decides (under the lock) whether the active fault fires on this
// request and returns the behavior to apply.
func (s *Server) takeFault(method string) (Config, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ctr.Requests++
	f := s.fault
	if !f.matches(method) {
		return Config{}, false
	}
	if f.Times > 0 && s.fired >= f.Times {
		return Config{}, false
	}
	s.fired++
	s.ctr.Faulted++
	return f, true
}

// sever kills the client's TCP connection with no response bytes — what a
// crashed store or a cut network looks like from the client side.
func sever(w http.ResponseWriter) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic("testserver: ResponseWriter is not a Hijacker")
	}
	conn, _, err := hj.Hijack()
	if err != nil {
		return
	}
	conn.Close()
}

func (s *Server) handle(w http.ResponseWriter, r *http.Request) {
	fault, fired := s.takeFault(r.Method)
	if fired {
		switch fault.Mode {
		case FaultDead, FaultDrop:
			sever(w)
			return
		case FaultError5xx:
			http.Error(w, "injected 503", http.StatusServiceUnavailable)
			return
		case FaultDelay:
			time.Sleep(fault.Delay)
			// fall through to normal service
		}
		// FaultTruncate and FaultCorrupt are applied at response time below.
	}

	bucket, key, err := splitPath(r.URL.Path)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	switch {
	case r.Method == http.MethodGet && key == "":
		s.handleList(w, r, bucket)
	case r.Method == http.MethodGet:
		s.handleGet(w, bucket, key, fault, fired)
	case r.Method == http.MethodPut && r.Header.Get("x-amz-copy-source") != "":
		s.handleCopy(w, r, bucket, key)
	case r.Method == http.MethodPut:
		s.handlePut(w, r, bucket, key, fault, fired)
	case r.Method == http.MethodDelete:
		s.handleDelete(w, bucket, key)
	default:
		http.Error(w, "method not supported", http.StatusMethodNotAllowed)
	}
}

// splitPath parses /bucket[/key...], unescaping the key.
func splitPath(p string) (bucket, key string, err error) {
	p = strings.TrimPrefix(p, "/")
	if p == "" {
		return "", "", fmt.Errorf("missing bucket")
	}
	bucket, rawKey, _ := strings.Cut(p, "/")
	if rawKey == "" {
		return bucket, "", nil
	}
	parts := strings.Split(rawKey, "/")
	for i, part := range parts {
		u, err := url.PathUnescape(part)
		if err != nil {
			return "", "", fmt.Errorf("bad key escape %q", part)
		}
		parts[i] = u
	}
	return bucket, strings.Join(parts, "/"), nil
}

func (s *Server) handleGet(w http.ResponseWriter, bucket, key string, fault Config, fired bool) {
	s.mu.Lock()
	data, ok := s.objects[bucket+"/"+key]
	s.mu.Unlock()
	if !ok {
		http.Error(w, "NoSuchKey", http.StatusNotFound)
		return
	}
	body := append([]byte(nil), data...)
	if fired && fault.Mode == FaultCorrupt {
		// Flip bits across the body; CRCs and content-key recomputation on
		// the client must reject this.
		for i := range body {
			if i%7 == 3 {
				body[i] ^= 0xA5
			}
		}
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	if fired && fault.Mode == FaultTruncate {
		// Write half of the declared length; Go's http.Server notices the
		// short write on handler return and closes the connection, so the
		// client observes an unexpected EOF.
		w.Write(body[:len(body)/2])
		return
	}
	w.Write(body)
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request, bucket, key string, fault Config, fired bool) {
	data, err := readBody(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	full := bucket + "/" + key
	s.mu.Lock()
	_, exists := s.objects[full]
	if r.Header.Get("If-None-Match") == "*" && exists {
		s.mu.Unlock()
		http.Error(w, "PreconditionFailed", http.StatusPreconditionFailed)
		return
	}
	s.objects[full] = data
	if !exists {
		s.ctr.Creates++
	}
	s.mu.Unlock()
	if fired && fault.Mode == FaultTruncate {
		// The object stored fine but the ACK is cut short — the client must
		// treat the write as failed; a later retry converges.
		sever(w)
		return
	}
	w.WriteHeader(http.StatusOK)
}

func (s *Server) handleCopy(w http.ResponseWriter, r *http.Request, bucket, key string) {
	src := strings.TrimPrefix(r.Header.Get("x-amz-copy-source"), "/")
	srcBucket, srcKey, err := splitPath("/" + src)
	if err != nil || srcKey == "" {
		http.Error(w, "bad copy source", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	data, ok := s.objects[srcBucket+"/"+srcKey]
	if ok {
		full := bucket + "/" + key
		if _, exists := s.objects[full]; !exists {
			s.ctr.Creates++
		}
		s.objects[full] = append([]byte(nil), data...)
	}
	s.mu.Unlock()
	if !ok {
		http.Error(w, "NoSuchKey", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	fmt.Fprint(w, `<CopyObjectResult><ETag>"copied"</ETag></CopyObjectResult>`)
}

func (s *Server) handleDelete(w http.ResponseWriter, bucket, key string) {
	s.mu.Lock()
	delete(s.objects, bucket+"/"+key)
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// handleList implements the slice of ListObjectsV2 the client consumes:
// prefix filtering, lexicographic order, continuation tokens (the token is
// the last key of the previous page), small fixed page size so pagination is
// actually exercised.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request, bucket string) {
	q := r.URL.Query()
	if q.Get("list-type") != "2" {
		http.Error(w, "only list-type=2 supported", http.StatusBadRequest)
		return
	}
	prefix := q.Get("prefix")
	after := q.Get("continuation-token")

	s.mu.Lock()
	var keys []string
	for k := range s.objects {
		if b, key, ok := strings.Cut(k, "/"); ok && b == bucket && strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
	}
	s.mu.Unlock()
	sort.Strings(keys)
	if after != "" {
		i := sort.SearchStrings(keys, after)
		if i < len(keys) && keys[i] == after {
			i++
		}
		keys = keys[i:]
	}

	const pageSize = 2 // small on purpose: clients must follow tokens
	truncated := len(keys) > pageSize
	next := ""
	if truncated {
		keys = keys[:pageSize]
		next = keys[len(keys)-1]
	}

	type contents struct {
		Key string `xml:"Key"`
	}
	res := struct {
		XMLName               xml.Name   `xml:"ListBucketResult"`
		IsTruncated           bool       `xml:"IsTruncated"`
		NextContinuationToken string     `xml:"NextContinuationToken,omitempty"`
		Contents              []contents `xml:"Contents"`
	}{IsTruncated: truncated, NextContinuationToken: next}
	for _, k := range keys {
		res.Contents = append(res.Contents, contents{Key: k})
	}
	w.Header().Set("Content-Type", "application/xml")
	if err := xml.NewEncoder(w).Encode(res); err != nil {
		return
	}
}

func readBody(r *http.Request) ([]byte, error) {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, fmt.Errorf("read body: %w", err)
	}
	return data, nil
}
