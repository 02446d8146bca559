package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"unicode/utf8"

	"hcapp/internal/sim"
	"hcapp/internal/tracing"
)

// The run-reply codec. Every RunResponse on the wire — a coordinator's
// reply to a client, a worker's reply to the coordinator — is written
// by the appenders below and read by decodeRunResponse, with no
// reflection on the per-item fields. The bytes are exactly the ones
// encoding/json writes for the same value (ES6 float form, sorted map
// keys, its string escaping), so curl users and docs see no change. The
// energy, scaling and spans sub-values are rare on the hot path and are
// left to encoding/json whole.

// appendRunResponse appends resp as json.Marshal encodes it, then a
// newline: the coordinator's reply body.
func appendRunResponse(b []byte, resp *RunResponse) ([]byte, error) {
	// A lean result is about 350 bytes.
	b = slices.Grow(b, 512*len(resp.Results)+64)
	b = append(b, `{"results":`...)
	if resp.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range resp.Results {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendItemResult(b, &resp.Results[i]); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"cache_hits":`...)
	b = strconv.AppendInt(b, int64(resp.CacheHits), 10)
	return appendSpansEnd(b, resp.Spans)
}

// appendSpansEnd appends the optional spans field and closes the reply.
func appendSpansEnd(b []byte, spans []tracing.Span) ([]byte, error) {
	if len(spans) > 0 {
		b = append(b, `,"spans":`...)
		var err error
		if b, err = appendMarshal(b, spans); err != nil {
			return b, err
		}
	}
	return append(b, "}\n"...), nil
}

// writeSliceResponse writes a worker's reply: resp without cache_hits,
// which only the coordinator fills. It appends one result at a time
// into one reused buffer and writes it out, so the buffer holds one
// item's JSON, energy ledger included, instead of the whole slice's
// (about 130 KB for a 32-item figure slice). An item that cannot be
// encoded ends the body early; the coordinator reads the truncated
// reply as a failed slice.
func writeSliceResponse(rw http.ResponseWriter, resp *RunResponse) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(http.StatusOK)
	b := append(make([]byte, 0, 8<<10), `{"results":[`...)
	for i := range resp.Results {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendItemResult(b, &resp.Results[i]); err != nil {
			return
		}
		rw.Write(b)
		b = b[:0]
	}
	b, err := appendSpansEnd(append(b, ']'), resp.Spans)
	if err != nil {
		return
	}
	rw.Write(b)
}

func appendItemResult(b []byte, ir *ItemResult) ([]byte, error) {
	b = append(b, '{')
	var err error
	if ir.Result != nil {
		b = append(b, `"result":`...)
		if b, err = appendResult(b, ir.Result); err != nil {
			return b, err
		}
	}
	if ir.Scaling != nil {
		b = appendSep(b, `"scaling":`)
		if b, err = appendMarshal(b, ir.Scaling); err != nil {
			return b, err
		}
	}
	if ir.Error != "" {
		b = appendString(appendSep(b, `"error":`), ir.Error)
	}
	return append(b, '}'), nil
}

// appendSep appends key after a comma unless it opens its object.
func appendSep(b []byte, key string) []byte {
	if b[len(b)-1] != '{' {
		b = append(b, ',')
	}
	return append(b, key...)
}

func appendResult(b []byte, r *Result) ([]byte, error) {
	var err error
	b = append(b, `{"max_window_power":`...)
	if b, err = appendFloat(b, r.MaxWindowPower); err != nil {
		return b, err
	}
	b = append(b, `,"max_over_limit":`...)
	if b, err = appendFloat(b, r.MaxOverLimit); err != nil {
		return b, err
	}
	b = append(b, `,"violated":`...)
	b = strconv.AppendBool(b, r.Violated)
	b = append(b, `,"avg_power":`...)
	if b, err = appendFloat(b, r.AvgPower); err != nil {
		return b, err
	}
	b = append(b, `,"ppe":`...)
	if b, err = appendFloat(b, r.PPE); err != nil {
		return b, err
	}
	if len(r.Completion) > 0 {
		b = append(b, `,"completion":`...)
		b = appendMap(b, r.Completion, func(b []byte, v sim.Time) []byte { return strconv.AppendInt(b, v, 10) })
	}
	if len(r.Finished) > 0 {
		b = append(b, `,"finished":`...)
		b = appendMap(b, r.Finished, strconv.AppendBool)
	}
	b = append(b, `,"completed":`...)
	b = strconv.AppendBool(b, r.Completed)
	b = append(b, `,"duration_ns":`...)
	b = strconv.AppendInt(b, r.DurationNS, 10)
	b = append(b, `,"control_cycles":`...)
	b = strconv.AppendInt(b, r.ControlCycles, 10)
	if r.Energy != nil {
		b = append(b, `,"energy":`...)
		if b, err = appendMarshal(b, r.Energy); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// appendMap appends m as an object with its keys sorted, as
// encoding/json orders them.
func appendMap[V any](b []byte, m map[string]V, val func([]byte, V) []byte) []byte {
	var buf [8]string
	keys := buf[:0]
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(appendString(b, k), ':')
		b = val(b, m[k])
	}
	return append(b, '}')
}

// appendMarshal appends v as json.Marshal encodes it.
func appendMarshal(b []byte, v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	return append(b, raw...), err
}

// appendFloat appends f as encoding/json encodes a float64: the
// shortest decimal that round-trips, in exponent form below 1e-6 and
// from 1e21 up, with a single-digit exponent unpadded.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("cluster: json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 becomes e-7.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendString appends s quoted as encoding/json quotes it: HTML
// characters, control bytes, U+2028 and U+2029 escaped, and invalid
// UTF-8 replaced by an escaped U+FFFD.
func appendString(b []byte, s string) []byte {
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

// readRunResponse reads a 200 reply's body whole, into a buffer sized
// by its Content-Length when it has one, and decodes it.
func readRunResponse(r *http.Response) (*RunResponse, error) {
	var body []byte
	var err error
	if n := r.ContentLength; n > 0 && n <= 64<<20 {
		body = make([]byte, n)
		_, err = io.ReadFull(r.Body, body)
	} else {
		body, err = io.ReadAll(r.Body)
	}
	if err != nil {
		return nil, err
	}
	return decodeRunResponse(body)
}

// decodeRunResponse reads a whole reply body. It reads the shape the
// appenders above write directly — exact keys, each at most once, no
// nulls but a null results list — and hands any other input to
// json.Unmarshal, so what it returns, or whether it fails, is always
// what json.Unmarshal would return: a truncated or garbled body is an
// error.
func decodeRunResponse(data []byte) (*RunResponse, error) {
	d := replyDecoder{b: data}
	if rr, ok := d.runResponse(); ok {
		return rr, nil
	}
	var rr RunResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		return nil, err
	}
	return &rr, nil
}

// errNotDirect ends a direct read; decodeRunResponse then defers to
// json.Unmarshal, which decides.
var errNotDirect = errors.New("cluster: reply needs encoding/json")

// replyDecoder is a cursor over a reply body. Every method reads one
// JSON value of a known type at the cursor, leading whitespace
// included, and fails on anything outside the direct path.
type replyDecoder struct {
	b []byte
	i int
}

func (d *replyDecoder) runResponse() (*RunResponse, bool) {
	rr := &RunResponse{}
	err := d.object(func(key []byte) error {
		switch string(key[1 : len(key)-1]) {
		case "results":
			return d.results(&rr.Results)
		case "cache_hits":
			n, err := d.int()
			rr.CacheHits = int(n)
			return err
		case "spans":
			return d.delegate(&rr.Spans)
		}
		return errNotDirect
	})
	if err != nil {
		return nil, false
	}
	d.space()
	return rr, d.i == len(d.b)
}

func (d *replyDecoder) results(out *[]ItemResult) error {
	if d.space(); d.literal("null") {
		*out = nil
		return nil
	}
	if !d.consume('[') {
		return errNotDirect
	}
	res := make([]ItemResult, 0, 32)
	if d.consume(']') {
		*out = res
		return nil
	}
	for {
		var ir ItemResult
		if err := d.itemResult(&ir); err != nil {
			return err
		}
		res = append(res, ir)
		if d.consume(']') {
			*out = res
			return nil
		}
		if !d.consume(',') {
			return errNotDirect
		}
	}
}

func (d *replyDecoder) itemResult(ir *ItemResult) error {
	return d.object(func(key []byte) error {
		switch string(key[1 : len(key)-1]) {
		case "result":
			ir.Result = &Result{}
			return d.result(ir.Result)
		case "scaling":
			return d.delegate(&ir.Scaling)
		case "error":
			var err error
			ir.Error, err = d.string()
			return err
		}
		return errNotDirect
	})
}

func (d *replyDecoder) result(r *Result) error {
	return d.object(func(key []byte) error {
		var err error
		switch string(key[1 : len(key)-1]) {
		case "max_window_power":
			r.MaxWindowPower, err = d.float()
		case "max_over_limit":
			r.MaxOverLimit, err = d.float()
		case "violated":
			r.Violated, err = d.bool()
		case "avg_power":
			r.AvgPower, err = d.float()
		case "ppe":
			r.PPE, err = d.float()
		case "completion":
			r.Completion = map[string]sim.Time{}
			err = d.object(func(k []byte) error {
				name, err := unquote(k)
				if err == nil {
					r.Completion[name], err = d.int()
				}
				return err
			})
		case "finished":
			r.Finished = map[string]bool{}
			err = d.object(func(k []byte) error {
				name, err := unquote(k)
				if err == nil {
					r.Finished[name], err = d.bool()
				}
				return err
			})
		case "completed":
			r.Completed, err = d.bool()
		case "duration_ns":
			r.DurationNS, err = d.int()
		case "control_cycles":
			r.ControlCycles, err = d.int()
		case "energy":
			err = d.delegate(&r.Energy)
		default:
			err = errNotDirect
		}
		return err
	})
}

// object reads an object, calling field with each key, quoted and
// escapes untouched, once the cursor sits past its colon. A key that
// appears twice ends the direct read. A struct reader matches the key
// between the quotes, so one spelled with escapes or in another case
// is no match; a map reader unquotes its keys.
func (d *replyDecoder) object(field func(key []byte) error) error {
	if !d.consume('{') {
		return errNotDirect
	}
	if d.consume('}') {
		return nil
	}
	// A struct's keys are fewer than seen holds, so a struct object
	// with more has a duplicate or an unknown key; a map's keys past
	// that go unchecked, and a repeated one overwrites as it does in
	// json.Unmarshal.
	var seen [12][]byte
	n := 0
	for {
		d.space()
		key, ok := d.rawString()
		if !ok || !d.consume(':') {
			return errNotDirect
		}
		for _, k := range seen[:n] {
			if string(k) == string(key) {
				return errNotDirect
			}
		}
		if n < len(seen) {
			seen[n] = key
			n++
		}
		if err := field(key); err != nil {
			return err
		}
		if d.consume('}') {
			return nil
		}
		if !d.consume(',') {
			return errNotDirect
		}
	}
}

// rawString reads a quoted string at the cursor and returns it with
// its quotes, escapes untouched.
func (d *replyDecoder) rawString() ([]byte, bool) {
	if d.i >= len(d.b) || d.b[d.i] != '"' {
		return nil, false
	}
	for j := d.i + 1; j < len(d.b); j++ {
		switch d.b[j] {
		case '"':
			raw := d.b[d.i : j+1]
			d.i = j + 1
			return raw, true
		case '\\':
			j++
		}
	}
	return nil, false
}

func (d *replyDecoder) string() (string, error) {
	d.space()
	raw, ok := d.rawString()
	if !ok {
		return "", errNotDirect
	}
	return unquote(raw)
}

// unquote returns the string a quoted JSON string denotes. Valid UTF-8
// with no escapes and no control bytes is copied as it stands; anything
// else is left to encoding/json.
func unquote(raw []byte) (string, error) {
	body := raw[1 : len(raw)-1]
	plain := !slices.ContainsFunc(body, func(c byte) bool { return c < 0x20 || c == '\\' })
	if plain && utf8.Valid(body) {
		return string(body), nil
	}
	var s string
	if json.Unmarshal(raw, &s) != nil {
		return "", errNotDirect
	}
	return s, nil
}

func (d *replyDecoder) bool() (bool, error) {
	d.space()
	switch {
	case d.literal("true"):
		return true, nil
	case d.literal("false"):
		return false, nil
	}
	return false, errNotDirect
}

func (d *replyDecoder) literal(s string) bool {
	if len(d.b)-d.i >= len(s) && string(d.b[d.i:d.i+len(s)]) == s {
		d.i += len(s)
		return true
	}
	return false
}

// number reads a JSON number's text: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *replyDecoder) number() ([]byte, bool) {
	d.space()
	start := d.i
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
	}
	switch {
	case d.i < len(d.b) && d.b[d.i] == '0':
		d.i++
	case d.digits() == 0:
		return nil, false
	}
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		if d.digits() == 0 {
			return nil, false
		}
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if d.digits() == 0 {
			return nil, false
		}
	}
	return d.b[start:d.i], true
}

func (d *replyDecoder) digits() int {
	start := d.i
	for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}

func (d *replyDecoder) float() (float64, error) {
	num, ok := d.number()
	if !ok {
		return 0, errNotDirect
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return 0, errNotDirect
	}
	return f, nil
}

func (d *replyDecoder) int() (int64, error) {
	num, ok := d.number()
	if !ok {
		return 0, errNotDirect
	}
	n, err := strconv.ParseInt(string(num), 10, 64)
	if err != nil {
		return 0, errNotDirect
	}
	return n, nil
}

// delegate reads the value at the cursor into v with json.Unmarshal.
func (d *replyDecoder) delegate(v any) error {
	d.space()
	start := d.i
	if !d.skip() || json.Unmarshal(d.b[start:d.i], v) != nil {
		return errNotDirect
	}
	return nil
}

// skip moves the cursor past one value: a string, a bracketed value
// (brackets counted outside strings), or a scalar up to its delimiter.
// It checks no syntax; delegate's json.Unmarshal does.
func (d *replyDecoder) skip() bool {
	depth := 0
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case '"':
			if _, ok := d.rawString(); !ok {
				return false
			}
			if depth == 0 {
				return true
			}
			continue
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return true
			}
			if depth--; depth == 0 {
				d.i++
				return true
			}
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return true
			}
		}
		d.i++
	}
	return depth == 0
}

// consume skips whitespace and reads c if it comes next.
func (d *replyDecoder) consume(c byte) bool {
	d.space()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *replyDecoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}
