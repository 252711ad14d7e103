package controlplane

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/runtime"
)

// Publishing epochs: GET /v1/epochs and the SSE "epochs" event on
// GET /v1/epochs/stream carry the same EpochsStatus payload. Both render
// it with a reflection-free appender into a reused buffer, byte-identical
// to json.NewEncoder(w).Encode(st): totals come from the kernel's
// name-sorted ledger read (runtime.Kernel.AppendTotals), which is the
// order encoding/json sorts map keys in, and each name's quoted key is
// escaped once per ledger change rather than once per event.

// errNonFinite mirrors encoding/json's refusal to encode NaN or ±Inf.
var errNonFinite = errors.New("controlplane: epochs payload holds a non-finite number")

// epochsFeed is one renderer's reusable state: the ledger read, the
// escaped keys for its names, and the output buffer. A stream owns one;
// GET /v1/epochs borrows one from feedPool.
type epochsFeed struct {
	totals []runtime.AppTotal
	// names[i]'s JSON key (`"name":`) is keys[keyOff[i]:keyOff[i+1]].
	names  []string
	keys   []byte
	keyOff []int
	buf    []byte
}

var feedPool = sync.Pool{New: func() any { return new(epochsFeed) }}

// load reads the ledger and brings the key cache in line with it.
// While membership is unchanged the names are the same strings in the
// same order, so the comparison pass is pointer-equal string compares
// and nothing is re-escaped; after a change only the keys from the first
// differing name onwards are rebuilt.
func (f *epochsFeed) load(k *runtime.Kernel) {
	f.totals = k.AppendTotals(f.totals[:0])
	i := 0
	for i < len(f.totals) && i < len(f.names) && f.totals[i].Name == f.names[i] {
		i++
	}
	if i == len(f.totals) && i == len(f.names) {
		return
	}
	if len(f.keyOff) == 0 {
		f.keyOff = append(f.keyOff, 0)
	}
	f.names = f.names[:i]
	f.keyOff = f.keyOff[:i+1]
	f.keys = f.keys[:f.keyOff[i]]
	for _, t := range f.totals[i:] {
		f.names = append(f.names, t.Name)
		f.keys = appendStringJSON(f.keys, t.Name)
		f.keys = append(f.keys, ':')
		f.keyOff = append(f.keyOff, len(f.keys))
	}
}

// render loads the ledger and leaves prefix followed by st's payload
// (totals from the ledger) in f.buf.
func (f *epochsFeed) render(k *runtime.Kernel, prefix string, st *EpochsStatus) error {
	f.load(k)
	var err error
	f.buf, err = f.appendJSON(append(f.buf[:0], prefix...), st)
	return err
}

// appendJSON appends st exactly as json.NewEncoder(w).Encode(st) writes
// it — trailing newline included — except that totals_per_app is taken
// from f.totals (loaded, hence name-sorted) instead of st.TotalsPerApp.
func (f *epochsFeed) appendJSON(b []byte, st *EpochsStatus) ([]byte, error) {
	ok := finite(st.WorkGFlop) && finite(st.DeferredGFlop) && finite(st.EnergyJ)
	b = append(b, `{"epochs":`...)
	b = strconv.AppendInt(b, st.Epochs, 10)
	b = append(b, `,"generation":`...)
	b = strconv.AppendInt(b, st.Generation, 10)
	b = append(b, `,"served_generation":`...)
	b = strconv.AppendInt(b, st.ServedGeneration, 10)
	b = append(b, `,"apps":`...)
	b = strconv.AppendInt(b, int64(st.Apps), 10)
	b = append(b, `,"totals_per_app":{`...)
	for i, t := range f.totals {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, f.keys[f.keyOff[i]:f.keyOff[i+1]]...)
		b = appendFloatJSON(b, t.GFlop)
		ok = ok && finite(t.GFlop)
	}
	b = append(b, `},"work_gflop":`...)
	b = appendFloatJSON(b, st.WorkGFlop)
	b = append(b, `,"deferred_gflop":`...)
	b = appendFloatJSON(b, st.DeferredGFlop)
	b = append(b, `,"energy_j":`...)
	b = appendFloatJSON(b, st.EnergyJ)
	b = append(b, `,"backends":`...)
	if st.Backends == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range st.Backends {
			if i > 0 {
				b = append(b, ',')
			}
			bk := &st.Backends[i]
			ok = ok && finite(bk.WorkGFlop) && finite(bk.DeferredGFlop) && finite(bk.EnergyJ)
			b = appendBackendJSON(b, bk)
		}
		b = append(b, ']')
	}
	b = append(b, "}\n"...)
	if !ok {
		return b, errNonFinite
	}
	return b, nil
}

// appendBackendJSON appends one BackendStatus in encoding/json's field
// order, honouring its omitempty tags.
func appendBackendJSON(b []byte, bk *BackendStatus) []byte {
	b = append(b, `{"name":`...)
	b = appendStringJSON(b, bk.Name)
	b = append(b, `,"apps":`...)
	b = strconv.AppendInt(b, int64(bk.Apps), 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendInt(b, bk.Seq, 10)
	if bk.Health != "" {
		b = append(b, `,"health":`...)
		b = appendStringJSON(b, bk.Health)
	}
	if bk.State != "" {
		b = append(b, `,"state":`...)
		b = appendStringJSON(b, bk.State)
	}
	if bk.LastError != "" {
		b = append(b, `,"last_error":`...)
		b = appendStringJSON(b, bk.LastError)
	}
	b = append(b, `,"epochs":`...)
	b = strconv.AppendInt(b, int64(bk.Epochs), 10)
	b = append(b, `,"work_gflop":`...)
	b = appendFloatJSON(b, bk.WorkGFlop)
	b = append(b, `,"deferred_gflop":`...)
	b = appendFloatJSON(b, bk.DeferredGFlop)
	b = append(b, `,"energy_j":`...)
	b = appendFloatJSON(b, bk.EnergyJ)
	b = append(b, `,"thermal_events":`...)
	b = strconv.AppendInt(b, int64(bk.ThermalEvents), 10)
	b = append(b, `,"cap_demotions":`...)
	b = strconv.AppendInt(b, int64(bk.CapDemotions), 10)
	return append(b, '}')
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return v-v == 0 }

// appendFloatJSON appends a finite v as encoding/json encodes a float64:
// the shortest round-tripping decimal, in 'f' form unless |v| < 1e-6 or
// |v| >= 1e21, where it switches to 'e' form with the exponent's leading
// zero dropped (1e-07 → 1e-7).
func appendFloatJSON(b []byte, v float64) []byte {
	abs := v
	if abs < 0 {
		abs = -abs
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendStringJSON appends s as a JSON string under encoding/json's
// default (HTML-escaping) rules: `"` and `\` backslash-escaped, the
// control characters as \b \f \n \r \t or \u00XX, `<` `>` `&` as \u00XX,
// invalid UTF-8 as \ufffd, and U+2028/U+2029 as \u2028/\u2029.
func appendStringJSON(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// epochsHeader assembles everything in the /v1/epochs payload except
// the per-app totals, which the feed renders from the ledger directly.
func (s *Server) epochsHeader() EpochsStatus {
	k := s.kernel
	ms := k.ManagerStats()
	return EpochsStatus{
		Epochs:           k.Epochs(),
		Generation:       k.Generation(),
		ServedGeneration: k.ServedGeneration(),
		Apps:             k.NumApps(),
		WorkGFlop:        ms.WorkGFlop,
		DeferredGFlop:    ms.DeferredGFlop,
		EnergyJ:          ms.EnergyJ,
		Backends:         s.backendStatuses(),
	}
}

func (s *Server) handleEpochs(w http.ResponseWriter, r *http.Request) {
	st := s.epochsHeader()
	f := feedPool.Get().(*epochsFeed)
	defer feedPool.Put(f)
	if err := f.render(s.kernel, "", &st); err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, "%s", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(f.buf)
}

// handleEpochStream is the server-sent-events feed of /v1/epochs
// (GET /v1/epochs/stream): an initial snapshot, then one "epochs" event
// per epoch advance, throttled to at most one event per interval
// (?interval_ms, default 250, 0 = every epoch signal) so a kernel
// running epochs at microsecond pace cannot flood the connection. The
// throttle window opens when an event goes out: an epoch signalled
// after a quiet stretch of at least one interval is sent at once, one
// signalled sooner waits until the previous event is an interval old,
// and every epoch landing meanwhile coalesces into that one event. The
// initial snapshot opens no window. Clients watch the stream instead of
// polling /v1/epochs; the subscription costs the epoch hot path a
// single atomic load. Backend state transitions
// (failed, degraded, healed, draining, removed) arrive as separate
// "backend" events, immediately — a failure bypasses the interval
// throttle, because the throttle exists for epoch cadence, not for
// rare state changes an operator is waiting on. The stream ends only
// when the client disconnects.
func (s *Server) handleEpochStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, CodeInternal, "streaming unsupported by this connection")
		return
	}
	interval := 250 * time.Millisecond
	if q := r.URL.Query().Get("interval_ms"); q != "" {
		ms, err := strconv.Atoi(q)
		if err != nil || ms < 0 || ms > 60_000 {
			badRequest(w, "interval_ms %q out of range [0, 60000]", q)
			return
		}
		interval = time.Duration(ms) * time.Millisecond
	}
	sig, cancel := s.kernel.EpochSignal()
	defer cancel()
	bev, bcancel := s.kernel.BackendEvents()
	defer bcancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// Coalescing is per backend, not per global epoch counter: a commit
	// that outlived the backend timeout lands after its epoch, and that
	// late backend's commit must produce an event even when the global
	// counter moved (and was streamed) long before. An
	// event is suppressed only when the epoch counter AND every
	// backend's seq are unchanged since the last one.
	lastEpoch := int64(-1)
	var lastSeqs []int64
	fresh := func(st *EpochsStatus) bool {
		if st.Epochs != lastEpoch || len(st.Backends) != len(lastSeqs) {
			return true
		}
		for i, b := range st.Backends {
			if b.Seq != lastSeqs[i] {
				return true
			}
		}
		return false
	}
	var feed epochsFeed
	var lastSend time.Time
	send := func() error {
		st := s.epochsHeader()
		if !fresh(&st) {
			return nil // woken but nothing new (coalesced signals)
		}
		lastEpoch = st.Epochs
		lastSeqs = lastSeqs[:0]
		for _, b := range st.Backends {
			lastSeqs = append(lastSeqs, b.Seq)
		}
		if err := feed.render(s.kernel, "event: epochs\ndata: ", &st); err != nil {
			return err
		}
		feed.buf = append(feed.buf, '\n') // blank line ends the SSE event
		if _, err := w.Write(feed.buf); err != nil {
			return err
		}
		fl.Flush()
		lastSend = time.Now()
		return nil
	}
	enc := json.NewEncoder(w)
	sendBackend := func(ev runtime.BackendEvent) error {
		body := BackendEventBody{
			Backend: ev.Backend,
			Health:  ev.Health.String(),
			State:   ev.State,
			Reason:  ev.Reason,
		}
		if _, err := io.WriteString(w, "event: backend\ndata: "); err != nil {
			return err
		}
		if err := enc.Encode(body); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
		fl.Flush()
		return nil
	}
	if err := send(); err != nil { // initial snapshot, before any epoch
		return
	}
	lastSend = time.Time{} // the snapshot opens no throttle window
	window := time.NewTimer(interval)
	window.Stop() // armed by Reset per window; a stopped timer never fires
	defer window.Stop()
	done := r.Context().Done()
	for {
		select {
		case <-done:
			return
		case ev := <-bev:
			if err := sendBackend(ev); err != nil {
				return
			}
			continue
		case <-sig:
		}
		if wait := time.Until(lastSend.Add(interval)); wait > 0 {
			// Throttle: hold the event until the window the last send
			// opened closes. Backend transitions still cut through.
			window.Reset(wait)
		throttle:
			for {
				select {
				case <-done:
					return
				case ev := <-bev:
					if err := sendBackend(ev); err != nil {
						return
					}
				case <-window.C:
					break throttle
				}
			}
		}
		if err := send(); err != nil {
			return
		}
	}
}
