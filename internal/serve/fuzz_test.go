package serve

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"fastflex/internal/experiment"
)

// FuzzJobRequest runs arbitrary request bodies through admission as
// POST /v1/jobs does: strict decoding, normalize against the registry,
// digest. Nothing may panic, and admission is a fixed point: an admitted
// request, marshalled, decoded and normalized again, keeps its digest,
// because equal digests promise equal result bytes.
func FuzzJobRequest(f *testing.F) {
	for _, body := range []string{
		``,
		`{"experiment":"fig3"}`,
		`{"experiment":"FIG3","seeds":[3,1],"short":true,"timeout_sec":5}`,
		`{"experiment":"fig3","bogus":1}`,
		`{"scenario":{}}`,
		`{"scenario":{"topology":{"users":2,"bots":4,"servers":2},"attack":{"start_sec":1},"defense":"undefended","duration_sec":3}}`,
		`{"scenario":{"topology":{"kind":"multiregion","regions":2,"region_size":4},"defense":"fastflex","shards":2}}`,
		`{"scenario":{"sample_every_sec":-1,"attack":{"flows_per_bot":-2}}}`,
		`{"scenario":{"attack":{"start_sec":10,"stop_sec":5}},"seeds":[0]}`,
	} {
		f.Add([]byte(body))
	}
	defs := experiment.Registry()
	const maxTimeout = 10 * time.Minute
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeJobRequest(bytes.NewReader(body))
		if err != nil || req.normalize(defs, maxTimeout) != nil {
			return
		}
		digest := req.digest()
		wire, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshalling an admitted request: %v", err)
		}
		again, err := decodeJobRequest(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("an admitted request does not decode back: %v\n%s", err, wire)
		}
		if err := again.normalize(defs, maxTimeout); err != nil {
			t.Fatalf("an admitted request is refused when resubmitted: %v\n%s", err, wire)
		}
		if d := again.digest(); d != digest {
			t.Fatalf("digest drifted on resubmission: %s then %s\n%s", digest, d, wire)
		}
	})
}
