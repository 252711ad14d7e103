package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/controlplane"
)

// rawStream is the client half of POST /v1/stream carrying frames the
// bench encoded itself. controlplane.Client.Stream encodes on every
// Flush; here the frames are pre-encoded once so the generator spends
// its time writing, not encoding.
type rawStream struct {
	pw   *io.PipeWriter
	done chan streamEnd
}

type streamEnd struct {
	ack controlplane.StreamAck
	err error
}

func openStream(p *serveProc) *rawStream {
	pr, pw := io.Pipe()
	s := &rawStream{pw: pw, done: make(chan streamEnd, 1)}
	go func() {
		req, err := http.NewRequest(http.MethodPost, p.base+"/v1/stream", pr)
		if err != nil {
			pr.CloseWithError(err)
			s.done <- streamEnd{err: err}
			return
		}
		req.Header.Set("Content-Type", "application/x-antarex-wire")
		hc := *p.hc
		hc.Timeout = 0 // the stream outlives any request timeout
		resp, err := hc.Do(req)
		if err != nil {
			pr.CloseWithError(err)
			s.done <- streamEnd{err: err}
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
			err := fmt.Errorf("stream ended %s: %s", resp.Status, bytes.TrimSpace(body))
			pr.CloseWithError(err)
			s.done <- streamEnd{err: err}
			return
		}
		var end streamEnd
		end.err = json.NewDecoder(resp.Body).Decode(&end.ack)
		s.done <- end
	}()
	return s
}

func (s *rawStream) Write(b []byte) error {
	_, err := s.pw.Write(b)
	return err
}

// Close ends the send side and returns the server's terminal ack.
func (s *rawStream) Close() (controlplane.StreamAck, error) {
	s.pw.Close()
	end := <-s.done
	return end.ack, end.err
}

// sseFeed is a subscriber of GET /v1/epochs/stream. Each "epochs"
// event's data line is handed to onEvent with its arrival time; the
// line is only valid during the call. Events are scanned, not
// unmarshalled: the generator must not be the bottleneck.
type sseFeed struct {
	cancel context.CancelFunc
	done   chan error
	events atomic.Int64
	bytes  atomic.Int64
}

// subscribe opens the feed. intervalMS < 0 leaves the server's default
// throttle (250 ms); 0 asks for one event per epoch signal.
func subscribe(p *serveProc, intervalMS int, onEvent func(data []byte, at time.Time)) (*sseFeed, error) {
	url := p.base + "/v1/epochs/stream"
	if intervalMS >= 0 {
		url += "?interval_ms=" + strconv.Itoa(intervalMS)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	hc := *p.hc
	hc.Timeout = 0
	resp, err := hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("epoch stream: %s", resp.Status)
	}
	f := &sseFeed{cancel: cancel, done: make(chan error, 1)}
	go func() {
		defer resp.Body.Close()
		// One event carries every tenant's total: ~35 KB at 1024 tenants.
		br := bufio.NewReaderSize(resp.Body, 1<<20)
		for {
			line, err := br.ReadSlice('\n')
			if err != nil {
				if ctx.Err() != nil {
					err = nil // closed by us
				}
				f.done <- err
				return
			}
			data, ok := bytes.CutPrefix(line, []byte("data: "))
			if !ok || !bytes.HasPrefix(data, []byte(`{"epochs"`)) {
				continue // event:/blank lines, backend transition events
			}
			at := time.Now()
			f.events.Add(1)
			f.bytes.Add(int64(len(data)))
			if onEvent != nil {
				onEvent(data, at)
			}
		}
	}()
	return f, nil
}

// close ends the subscription and waits for the reader to stop.
func (f *sseFeed) close() error {
	f.cancel()
	return <-f.done
}

// appTotal scans one epochs event for a tenant's cumulative offered
// GFlop. key is the tenant's quoted name plus colon, as it appears in
// totals_per_app.
func appTotal(data, key []byte) (float64, bool) {
	i := bytes.Index(data, key)
	if i < 0 {
		return 0, false
	}
	rest := data[i+len(key):]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(rest[:end]), 64)
	return v, err == nil
}

func totalKey(name string) []byte { return []byte(`"` + name + `":`) }
