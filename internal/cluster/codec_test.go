package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"reflect"
	"testing"

	"hcapp/internal/energy"
	"hcapp/internal/tracing"
)

// codecReplies are replies of every shape the fleet sends: a lean hot
// reply, an energy reply, a worker reply with spans, an item error with
// escapes, a scaling item, and floats on both sides of encoding/json's
// exponent cutoffs.
func codecReplies() map[string]*RunResponse {
	lean := &Result{
		MaxWindowPower: 99.38170731707317, MaxOverLimit: 0.9938170731707317, AvgPower: 81.79025641025641, PPE: 0.8179025641025641,
		Completion: map[string]int64{"sha": 1200000, "cpu": 2000000, "gpu": 1900000},
		Finished:   map[string]bool{"sha": true, "cpu": false, "gpu": true},
		Completed:  false, DurationNS: 2000000, ControlCycles: 2000,
	}
	withEnergy := *lean
	withEnergy.Energy = &energy.Summary{
		Components: []energy.ComponentEnergy{{Domain: "cpu", Component: "cpu0", Benchmark: "ferret", AttributedJ: 0.125, TrueJ: 0.12}},
		Domains:    []energy.DomainEnergy{{Domain: "cpu", EnergyJ: 0.5, UncoreJ: 0.01, Units: 4}},
		TotalJ:     0.75, Steps: 2000,
	}
	tiny := Result{MaxWindowPower: 9.5e-7, MaxOverLimit: 1e-6, AvgPower: -3e-9, PPE: 1e21, Violated: true, Completed: true,
		Completion: map[string]int64{}, DurationNS: -1, ControlCycles: math.MaxInt64}
	return map[string]*RunResponse{
		"lean hot": {Results: []ItemResult{{Result: lean}, {Result: lean}}, CacheHits: 2},
		"energy":   {Results: []ItemResult{{Result: &withEnergy}}},
		"worker with spans": {Results: []ItemResult{{Result: &withEnergy}}, Spans: []tracing.Span{
			{TraceID: "t", SpanID: "s", Name: "engine", Path: "batch/item[0]/engine", Attrs: map[string]string{"worker": "<w-a>", "outcome": "ok"}}}},
		"item error with escapes": {Results: []ItemResult{{Error: "bad \"spec\" <a&b>\\ \n\t\r\b\f\x01 \u2028\u2029 é \xff"}}},
		"scaling":                 {Results: []ItemResult{{Scaling: &ScalingCellResult{MaxOverLimit: 1.25, PPE: 0.5}}, {}}},
		"float below 1e-6":        {Results: []ItemResult{{Result: &tiny}}},
		"empty":                   {Results: []ItemResult{}, CacheHits: 3},
		"null results":            {},
	}
}

// TestRunResponseCodecMatchesEncodingJSON: the appenders write exactly
// json.Marshal's bytes and a newline, and the direct decoder reads them
// back, unaided by json.Unmarshal, into what json.Unmarshal returns.
func TestRunResponseCodecMatchesEncodingJSON(t *testing.T) {
	for name, resp := range codecReplies() {
		got, err := appendRunResponse(nil, resp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("%s: appended\n%s\njson.Marshal\n%s", name, got, want)
		}
		d := replyDecoder{b: got}
		direct, ok := d.runResponse()
		if !ok {
			t.Fatalf("%s: the direct decoder gave up on\n%s", name, got)
		}
		var std RunResponse
		if err := json.Unmarshal(got, &std); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*direct, std) {
			t.Fatalf("%s: decoded %+v, json.Unmarshal %+v", name, *direct, std)
		}
	}
}

// TestRunResponseCodecRefusesNaN: a value encoding/json cannot encode
// is an error, so the coordinator can answer 500 instead of a 200 with
// a broken body.
func TestRunResponseCodecRefusesNaN(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		resp := &RunResponse{Results: []ItemResult{{Result: &Result{PPE: f}}}}
		if _, err := appendRunResponse(nil, resp); err == nil {
			t.Fatalf("appendRunResponse encoded PPE %g", f)
		}
	}
}

// TestDecodeRunResponseIsUnmarshal: input off the direct path (other
// key spellings, unknown keys, nulls, duplicates, truncation, trailing
// bytes) is decided by json.Unmarshal.
func TestDecodeRunResponseIsUnmarshal(t *testing.T) {
	for _, in := range []string{
		`{"Results":[{"RESULT":{"avg_power":1}}],"Cache_Hits":2}`,
		`{"results":[{"result":{"avg_power":1,"bogus":[1,2]}}],"x":null}`,
		`{"results":[null,{"result":null,"error":null}],"cache_hits":null}`,
		`{"results":[{"result":{"completion":{"cpu":1,"cpu":2}}}]}`,
		`{"results":[{"result":{"completion":{"cpu":1},"completion":{"gpu":2}}}]}`,
		`{"results":[],"results":[{}]}`,
		`{"results":[{"result":{"avg_power":1.5`,
		`{"results":[]} x`,
		`{"results":[{"error":"aé\ud800"}]}`,
		`{"cache_hits":1.5}`,
		`{"cache_hits":1e2}`,
		`{"results":[{"result":{"ppe":1e400}}]}`,
		`{"results":[{"result":{"ppe":01}}]}`,
		`{"spans":[{"name":"e","attrs":{"k":"v"}}],"spans":[]}`,
		` {"results" : [ { "result" : { "violated" : true } } ] } `,
		`null`,
		``,
	} {
		got, gotErr := decodeRunResponse([]byte(in))
		var want RunResponse
		wantErr := json.Unmarshal([]byte(in), &want)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%s: decode error %v, json.Unmarshal error %v", in, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(*got, want) {
			t.Fatalf("%s: decoded %+v, json.Unmarshal %+v", in, *got, want)
		}
	}
}

// TestSliceResponseIsWriteJSONs: a worker's item-at-a-time reply is
// the json.Marshal encoding of its reply without cache_hits, which only
// the coordinator fills, and the coordinator's decoder reads it back
// as json.Unmarshal does.
func TestSliceResponseIsWriteJSONs(t *testing.T) {
	for name, resp := range codecReplies() {
		if resp.Results == nil {
			continue // a worker always replies with a list
		}
		rec := httptest.NewRecorder()
		writeSliceResponse(rec, resp)
		want, err := json.Marshal(struct {
			Results []ItemResult   `json:"results"`
			Spans   []tracing.Span `json:"spans,omitempty"`
		}{resp.Results, resp.Spans})
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.Body.Bytes(); !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("%s: worker reply\n%s\nwant\n%s", name, got, want)
		}
		if ct := rec.Header().Get("Content-Type"); rec.Code != 200 || ct != "application/json" {
			t.Fatalf("%s: status %d, content type %q", name, rec.Code, ct)
		}
		back, err := decodeRunResponse(rec.Body.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		var std RunResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &std); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*back, std) || back.CacheHits != 0 {
			t.Fatalf("%s: read back %+v, json.Unmarshal %+v", name, *back, std)
		}
	}
}
