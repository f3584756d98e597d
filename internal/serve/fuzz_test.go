package serve

import (
	"bytes"
	"net/http/httptest"
	"net/url"
	"testing"

	"ringsampler/internal/core"
	"ringsampler/internal/shard"
)

// fuzzNodes is the node count the fuzzed decoders validate against.
const fuzzNodes = 1000

func fuzzConfig() Config {
	cfg := DefaultConfig()
	cfg.Core.BatchSize = 64
	cfg.fillDefaults()
	return cfg
}

// FuzzSampleRequest feeds arbitrary bodies and ?features values through
// the POST /v1/sample admission check. It may reject anything, but must
// never panic, and whatever it accepts must be in range: 1 to
// MaxTargetsPerRequest targets all below the node count, 1 to
// MaxFanoutLayers fanouts in [1, MaxFanout], a known strategy, no
// feature payload without a feature file, and a deadline in
// (0, MaxTimeout].
func FuzzSampleRequest(f *testing.F) {
	f.Add([]byte(`{"targets":[1,2,3],"fanouts":[5,5],"seed":7}`), "", false)
	f.Add([]byte(`{"targets":[999],"strategy":"walk","features":true,"timeout_ms":5}`), "true", true)
	f.Add([]byte(`{"targets":[1000]}`), "", false)
	f.Add([]byte(`{"targets":[1],"fanouts":[0]}`), "", false)
	f.Add([]byte(`{"targets":[1],"fanouts":[257]}`), "", false)
	f.Add([]byte(`{"targets":[1],"fanouts":[1,1,1,1,1,1,1,1,1]}`), "", false)
	f.Add([]byte(`{"targets":[1],"strategy":"bogus"}`), "", false)
	f.Add([]byte(`{"targets":[1],"timeout_ms":-1}`), "", false)
	f.Add([]byte(`{"targets":[4294967295]}`), "yes", true)
	f.Add([]byte(`{"targets":[]}`), "", false)
	f.Add([]byte(`{"targets":[1]`), "", false)
	cfg := fuzzConfig()
	f.Fuzz(func(t *testing.T, body []byte, features string, hasFeatures bool) {
		r := httptest.NewRequest("POST", "/v1/sample?features="+url.QueryEscape(features), bytes.NewReader(body))
		req, timeout, err := cfg.validateSample(r, fuzzNodes, hasFeatures)
		if err != nil {
			return
		}
		if len(req.Targets) == 0 || len(req.Targets) > cfg.MaxTargetsPerRequest {
			t.Fatalf("accepted %d targets (limit %d)", len(req.Targets), cfg.MaxTargetsPerRequest)
		}
		for i, v := range req.Targets {
			if v >= fuzzNodes {
				t.Fatalf("accepted target[%d] = %d on a %d-node graph", i, v, fuzzNodes)
			}
		}
		if len(req.Fanouts) == 0 || len(req.Fanouts) > cfg.MaxFanoutLayers {
			t.Fatalf("accepted %d fanout layers (limit %d)", len(req.Fanouts), cfg.MaxFanoutLayers)
		}
		for i, fo := range req.Fanouts {
			if fo < 1 || fo > cfg.MaxFanout {
				t.Fatalf("accepted fanout[%d] = %d (limit %d)", i, fo, cfg.MaxFanout)
			}
		}
		if !core.ValidStrategy(req.Strategy) {
			t.Fatalf("accepted unknown strategy %q", req.Strategy)
		}
		if req.Features && !hasFeatures {
			t.Fatal("accepted a feature request on a dataset without features")
		}
		if timeout <= 0 || timeout > cfg.MaxTimeout {
			t.Fatalf("accepted timeout %v (max %v)", timeout, cfg.MaxTimeout)
		}
	})
}

// FuzzShardLayerRequest feeds arbitrary bodies through the POST
// /v1/shard/layer admission check: shard.LayerRequest decoding,
// shard.ParseState and the handler's bounds checks. Whatever it
// accepts must be samplable: a non-empty frontier below the node count,
// a non-negative layer, a fanout in [1, MaxFanout], an explicit known
// strategy, and the RNG state the body carried.
func FuzzShardLayerRequest(f *testing.F) {
	f.Add([]byte(`{"frontier":[1,2],"layer":0,"fanout":5,"strategy":"uniform","rng_state":"00000000000000ff"}`))
	f.Add([]byte(`{"frontier":[999],"layer":3,"fanout":256,"strategy":"walk","rng_state":"ffffffffffffffff"}`))
	f.Add([]byte(`{"frontier":[1000],"layer":0,"fanout":5,"strategy":"uniform","rng_state":"0"}`))
	f.Add([]byte(`{"frontier":[1],"layer":-1,"fanout":5,"strategy":"uniform","rng_state":"0"}`))
	f.Add([]byte(`{"frontier":[1],"layer":0,"fanout":0,"strategy":"uniform","rng_state":"0"}`))
	f.Add([]byte(`{"frontier":[1],"layer":0,"fanout":5,"rng_state":"0"}`))
	f.Add([]byte(`{"frontier":[1],"layer":0,"fanout":5,"strategy":"uniform","rng_state":"1ffffffffffffffff"}`))
	f.Add([]byte(`{"frontier":[],"layer":0,"fanout":5,"strategy":"uniform","rng_state":"0"}`))
	f.Add([]byte(`{"frontier":[1],"rng_state":"-1"}`))
	f.Add([]byte(`[`))
	cfg := fuzzConfig()
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest("POST", "/v1/shard/layer", bytes.NewReader(body))
		req, state, err := cfg.validateLayer(r, fuzzNodes)
		if err != nil {
			return
		}
		if len(req.Frontier) == 0 {
			t.Fatal("accepted an empty frontier")
		}
		for i, v := range req.Frontier {
			if v >= fuzzNodes {
				t.Fatalf("accepted frontier[%d] = %d on a %d-node graph", i, v, fuzzNodes)
			}
		}
		if req.Layer < 0 || req.Fanout < 1 || req.Fanout > cfg.MaxFanout {
			t.Fatalf("accepted layer %d / fanout %d (limit %d)", req.Layer, req.Fanout, cfg.MaxFanout)
		}
		if req.Strategy == "" || !core.ValidStrategy(req.Strategy) {
			t.Fatalf("accepted strategy %q", req.Strategy)
		}
		if want, err := shard.ParseState(req.RNGState); err != nil || want != state {
			t.Fatalf("accepted rng_state %q as %016x", req.RNGState, state)
		}
	})
}

// FuzzShardFeaturesRequest feeds arbitrary bodies, shard ranges and
// feature-file presence through the POST /v1/shard/features admission
// check. Whatever it accepts must be servable: at least one node, every
// node inside the shard range [lo, lo+n), and a dataset with features.
// The seed corpus is testdata/fuzz/FuzzShardFeaturesRequest.
func FuzzShardFeaturesRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, lo, n uint32, hasFeatures bool) {
		hi := int64(lo) + int64(n)
		r := httptest.NewRequest("POST", "/v1/shard/features", bytes.NewReader(body))
		req, err := validateFeatures(r, int64(lo), hi, hasFeatures)
		if err != nil {
			return
		}
		if !hasFeatures {
			t.Fatal("accepted a features request on a dataset without features")
		}
		if len(req.Nodes) == 0 {
			t.Fatal("accepted an empty node list")
		}
		for i, v := range req.Nodes {
			if int64(v) < int64(lo) || int64(v) >= hi {
				t.Fatalf("accepted nodes[%d] = %d outside [%d,%d)", i, v, lo, hi)
			}
		}
	})
}
