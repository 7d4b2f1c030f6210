package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/server"
)

// daemon is one in-process daemon (the real service and handler over a
// loopback listener) and the single keep-alive connection the closed loop
// sends on.
type daemon struct {
	svc    *server.Service
	srv    *httptest.Server
	client *http.Client
	// traced adds X-Trace: 1 to join requests, so responses echo their span
	// trees.
	traced bool
	buf    *bufio.Reader
}

func startDaemon() *daemon {
	svc := server.NewService(server.Config{})
	srv := httptest.NewServer(server.NewHandler(svc))
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &daemon{
		svc:    svc,
		srv:    srv,
		client: &http.Client{Transport: tr},
		buf:    bufio.NewReaderSize(nil, 64<<10),
	}
}

// close stops the listener and waits for the service's background merges.
func (d *daemon) close() {
	d.client.CloseIdleConnections()
	d.srv.Close()
	d.svc.Quiesce()
}

type elementJSON struct {
	ID  uint64 `json:"id"`
	Box struct {
		Lo geom.Point `json:"lo"`
		Hi geom.Point `json:"hi"`
	} `json:"box"`
}

// elementsBody encodes a dataset registration (name != "") or an append
// body (name == "").
func elementsBody(name string, elems []geom.Element) []byte {
	out := make([]elementJSON, len(elems))
	for i, e := range elems {
		out[i].ID = e.ID
		out[i].Box.Lo, out[i].Box.Hi = e.Box.Lo, e.Box.Hi
	}
	body, err := json.Marshal(struct {
		Name     string        `json:"name,omitempty"`
		Elements []elementJSON `json:"elements"`
	}{name, out})
	if err != nil {
		panic(err) // plain structs of numbers always marshal
	}
	return body
}

func (d *daemon) post(path string, body []byte, trace bool) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, d.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if trace {
		req.Header.Set("X-Trace", "1")
	}
	return d.client.Do(req)
}

// postJSON sends body and decodes a 2xx JSON answer into out.
func (d *daemon) postJSON(path string, body []byte, trace bool, out any) (int64, error) {
	resp, err := d.post(path, body, trace)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return 0, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(raw))
	}
	return int64(len(raw)), json.Unmarshal(raw, out)
}

// register uploads a dataset and returns the registration response once
// its index is built.
func (d *daemon) register(body []byte) (server.BuildInfo, error) {
	var info server.BuildInfo
	_, err := d.postJSON("/datasets", body, false, &info)
	return info, err
}

// joinBody is the wire form of the join requests the classes send.
type joinBody struct {
	A         string `json:"a"`
	B         string `json:"b"`
	Algorithm string `json:"algorithm,omitempty"`
	Stream    bool   `json:"stream,omitempty"`
	NoCache   bool   `json:"no_cache,omitempty"`
}

// reply is what the client observed of one request.
type reply struct {
	latency time.Duration
	// ttfp is the time to the first NDJSON line of a stream.
	ttfp   time.Duration
	bytes  int64
	got    digest
	engine string
	cached bool
	trace  *obs.TraceDTO
}

// trailer is the last line of an NDJSON join stream.
type trailer struct {
	Summary *server.JoinSummary `json:"summary"`
	Cached  bool                `json:"cached"`
	Aborted *bool               `json:"aborted"`
	Pairs   *uint64             `json:"pairs"`
	Trace   *obs.TraceDTO       `json:"trace"`
}

var errWrongOutput = errors.New("wrong output")

// join sends one join request and checks the answer against want. The
// latency runs from the send to the end of the body.
func (d *daemon) join(jb joinBody, want digest) (reply, error) {
	body, err := json.Marshal(jb)
	if err != nil {
		return reply{}, err
	}
	start := time.Now()
	resp, err := d.post("/join", body, d.traced)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return reply{}, fmt.Errorf("join: %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	if !jb.Stream {
		return d.readCount(resp, start, want)
	}
	return d.readStream(resp, start, want)
}

func (d *daemon) readCount(resp *http.Response, start time.Time, want digest) (reply, error) {
	raw, err := io.ReadAll(resp.Body)
	r := reply{latency: time.Since(start), bytes: int64(len(raw))}
	if err != nil {
		return r, err
	}
	var out struct {
		Cached  bool               `json:"cached"`
		Summary server.JoinSummary `json:"summary"`
		Trace   *obs.TraceDTO      `json:"trace"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return r, fmt.Errorf("count: %w", err)
	}
	r.got = digest{Pairs: out.Summary.Results}
	r.engine, r.cached, r.trace = out.Summary.Algorithm, out.Cached, out.Trace
	if out.Summary.Results != want.Pairs {
		return r, fmt.Errorf("%w: count %d pairs, want %d", errWrongOutput, out.Summary.Results, want.Pairs)
	}
	return r, nil
}

func (d *daemon) readStream(resp *http.Response, start time.Time, want digest) (reply, error) {
	var r reply
	br := d.buf
	br.Reset(resp.Body)
	var last, long []byte
	for {
		line, err := br.ReadSlice('\n')
		r.bytes += int64(len(line))
		if err == bufio.ErrBufferFull {
			// Only a trailer carrying a large span tree outgrows the buffer.
			long = append(long, line...)
			continue
		}
		if long != nil {
			line, long = append(long, line...), nil
		}
		if err == io.EOF && len(line) == 0 {
			break
		}
		if err != nil && err != io.EOF {
			return r, err
		}
		if r.ttfp == 0 {
			r.ttfp = time.Since(start)
		}
		if last != nil {
			return r, fmt.Errorf("%w: line after the trailer", errWrongOutput)
		}
		if a, b, ok := parsePair(line); ok {
			r.got.add(a, b)
			continue
		}
		last = append([]byte(nil), line...)
	}
	r.latency = time.Since(start)
	if last == nil {
		return r, fmt.Errorf("%w: stream without trailer", errWrongOutput)
	}
	var t trailer
	if err := json.Unmarshal(last, &t); err != nil {
		return r, fmt.Errorf("%w: trailer: %v", errWrongOutput, err)
	}
	r.cached, r.trace = t.Cached, t.Trace
	if t.Summary != nil {
		r.engine = t.Summary.Algorithm
	}
	switch {
	case t.Aborted == nil || *t.Aborted || t.Pairs == nil:
		return r, fmt.Errorf("%w: trailer not aborted:false with a pair count: %s", errWrongOutput, bytes.TrimSpace(last))
	case *t.Pairs != r.got.Pairs:
		return r, fmt.Errorf("%w: trailer says %d pairs, %d lines came", errWrongOutput, *t.Pairs, r.got.Pairs)
	case r.got != want:
		return r, fmt.Errorf("%w: got %+v, want %+v", errWrongOutput, r.got, want)
	}
	return r, nil
}

// parsePair reads a pair line `{"a":<id>,"b":<id>}` without allocating.
func parsePair(line []byte) (a, b uint64, ok bool) {
	rest, ok := bytes.CutPrefix(line, []byte(`{"a":`))
	if !ok {
		return 0, 0, false
	}
	if a, rest, ok = parseID(rest); !ok {
		return 0, 0, false
	}
	if rest, ok = bytes.CutPrefix(rest, []byte(`,"b":`)); !ok {
		return 0, 0, false
	}
	if b, rest, ok = parseID(rest); !ok {
		return 0, 0, false
	}
	return a, b, bytes.HasPrefix(rest, []byte("}"))
}

// parseID reads the decimal digits at the start of s.
func parseID(s []byte) (v uint64, rest []byte, ok bool) {
	i := 0
	for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		if v > (math.MaxUint64-9)/10 {
			return 0, s, false
		}
		v = v*10 + uint64(s[i]-'0')
	}
	return v, s[i:], i > 0
}

// appendTo sends one append batch to the named dataset and checks that all
// of it landed.
func (d *daemon) appendTo(name string, batch []geom.Element) (reply, error) {
	body := elementsBody("", batch)
	var info server.AppendInfo
	start := time.Now()
	n, err := d.postJSON("/datasets/"+name+"/append", body, false, &info)
	r := reply{latency: time.Since(start), bytes: n}
	if err == nil && info.Appended != len(batch) {
		err = fmt.Errorf("%w: appended %d of %d", errWrongOutput, info.Appended, len(batch))
	}
	return r, err
}

// stats fetches /stats.
func (d *daemon) stats() (server.Stats, error) {
	var st server.Stats
	resp, err := d.client.Get(d.srv.URL + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
