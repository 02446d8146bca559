package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzClusterProtocol drives the fleet's JSON decode paths — every body
// a coordinator, worker, or client parses off the wire — with arbitrary
// bytes. Chaos injection truncates and garbles exactly these bodies, so
// the decoders must fail with an error, never a panic, and anything
// they do accept must survive key derivation and re-encoding. Run
// longer with
//
//	go test -fuzz=FuzzClusterProtocol ./internal/cluster
//
// (scripts/ci.sh runs a short -fuzztime pass on every build).
func FuzzClusterProtocol(f *testing.F) {
	// Seed corpus: one well-formed instance of each wire body, plus
	// truncations and type confusions chaos or a buggy peer could send.
	seeds := []string{
		`{"id":"w1","addr":"http://h:1","workers":2}`,
		`{"id":"w1"}`,
		`{"heartbeat_every_ms":2000,"expire_after_ms":6000}`,
		`{"tenant":"t1","priority":"batch","params":{"seed":42,"target_dur_ns":500000},"items":[{"spec":{"combo":"Low-Low","scheme":{"kind":0},"limit":{}}}]}`,
		`{"params":{"seed":1},"items":[{"scaling":{"combo":"Low-Low","triples":4,"period_ns":1000,"limit_w":12.5}}]}`,
		`{"params":{"seed":1},"items":[{}]}`,
		`{"params":{"seed":1},"items":[{"spec":{},"scaling":{}}]}`,
		`{"results":[{"result":{"avg_power":1.5,"ppe":0.8,"completed":true}},{"error":"boom"}],"cache_hits":1}`,
		`{"results":[{"result":{"avg_power":1.5`, // truncated mid-object
		`{"results":null}`,
		`{"results":[{"result":{"energy":{"total_j":1}}}]}`,
		`{"id":123}`, // type confusion
		`[]`,
		`null`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var reg RegisterRequest
		if json.Unmarshal(data, &reg) == nil {
			if _, err := json.Marshal(reg); err != nil {
				t.Fatalf("re-marshal RegisterRequest: %v", err)
			}
		}
		var hb HeartbeatRequest
		_ = json.Unmarshal(data, &hb)

		var rq RunRequest
		if json.Unmarshal(data, &rq) == nil {
			// Accepted batches must survive key derivation: item.key
			// either errors (malformed item) or returns a stable handle —
			// it must never panic on decoded wire data.
			for _, it := range rq.Items {
				k1, err := it.key(rq.Params)
				if err != nil {
					continue
				}
				k2, err := it.key(rq.Params)
				if err != nil || k1 != k2 {
					t.Fatalf("item key unstable: %q then (%q, %v)", k1, k2, err)
				}
			}
			if _, err := json.Marshal(rq); err != nil {
				t.Fatalf("re-marshal RunRequest: %v", err)
			}
		}

		var rr RunResponse
		if json.Unmarshal(data, &rr) == nil {
			if _, err := json.Marshal(rr); err != nil {
				t.Fatalf("re-marshal RunResponse: %v", err)
			}
		}
	})
}

// FuzzRunResponseCodec holds the run-reply codec to encoding/json: on
// any bytes, decodeRunResponse fails exactly where json.Unmarshal into
// a RunResponse fails and otherwise returns a reflect.DeepEqual value,
// and the appender re-encodes every decoded value to json.Marshal's
// bytes plus a newline. Run longer with
//
//	go test -run NoSuchTest -fuzz FuzzRunResponseCodec ./internal/cluster
func FuzzRunResponseCodec(f *testing.F) {
	for _, name := range []string{"lean hot", "energy", "worker with spans", "item error with escapes", "scaling", "float below 1e-6"} {
		b, err := appendRunResponse(nil, codecReplies()[name])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"Results":[{"Result":{"avg_power":1,"avg_power":2}}],"cache_hits":null}`))
	f.Add([]byte(`{"results":[{"result":{"completion":{"cpu":1e3}}}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeRunResponse(data)
		var std RunResponse
		stdErr := json.Unmarshal(data, &std)
		if (err != nil) != (stdErr != nil) {
			t.Fatalf("decode error %v, json.Unmarshal error %v", err, stdErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(*got, std) {
			t.Fatalf("decoded %+v, json.Unmarshal %+v", *got, std)
		}
		enc, err := appendRunResponse(nil, got)
		if err != nil {
			t.Fatalf("re-encoding a decoded reply: %v", err)
		}
		want, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, append(want, '\n')) {
			t.Fatalf("appended\n%s\njson.Marshal\n%s", enc, want)
		}
	})
}
