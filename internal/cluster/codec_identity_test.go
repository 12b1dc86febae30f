package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"specsync/internal/codec"
	"specsync/internal/scheme"
	"specsync/internal/trace"
)

// Golden digests captured from the pre-codec build (SHA-256 over the JSONL
// serialization of the full event trace). The raw codec is required to be
// byte-identical to that build: same messages, same simulated timings, same
// events, same transfer bytes. The trace carries no float values, so each
// row also pins the final parameters (ParamsDigest): a rounding change in a
// model kernel moves those even when the trace is unchanged. The cifar row
// (the only MLP golden) was recorded before the MLP kernels were tiled.
const (
	goldenTinyDigest = "53abcfe7cbf55e6da032bbd61b2d42cd771e53743a0fd8462f25d867301fd823"
	goldenTinyEvents = 159
	goldenTinyBytes  = 27147
	goldenTinyParams = "c0f7eb5b51a28bb7668890a15957212ef899a7a9059397a65d0c193bba0cd57a"

	goldenMFDigest = "16053559ea46635c0a5c8baf7308ba63341f3e578a7068b616fd73f017ad68a8"
	goldenMFEvents = 542
	goldenMFBytes  = 3612969
	goldenMFParams = "a0ca5c8ceb913dcaea89f66cd35560793e7de246339cfc379d96006b34a1c92b"

	goldenCIFARDigest = "6dc0a73a113f94a9d1cc3a20c9ca75dd74b2555ba043ed6ec5bb10b85b4309b8"
	goldenCIFAREvents = 97
	goldenCIFARBytes  = 682523
	goldenCIFARParams = "ceefe1679c2f538fffbe3765c1c5a3e71c56a157a0b5c794a82be61edc909b81"
)

func runDigest(t *testing.T, wl Workload, seed int64, cc codec.Config) (digest string, events int, bytesOnWire int64, res *Result) {
	t.Helper()
	res, err := Run(Config{
		Workload:   wl,
		Scheme:     scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive},
		Workers:    4,
		Seed:       seed,
		Codec:      cc,
		MaxVirtual: 2 * time.Minute,
		KeepTrace:  true,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	evs := res.Trace.Events()
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, evs); err != nil {
		t.Fatalf("serialize trace: %v", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), len(evs), res.Transfer.TotalBytes(), res
}

// TestRawCodecByteIdentical asserts the acceptance criterion that the
// default raw codec reproduces the pre-PR build bit-for-bit: the full event
// trace (including virtual timestamps, which depend on every message's
// encoded size) and the transfer byte totals match golden values recorded
// before the codec subsystem existed. Both an explicit "raw" and the zero
// config must hit the legacy path.
func TestRawCodecByteIdentical(t *testing.T) {
	cases := []struct {
		name   string
		seed   int64
		build  func() (Workload, error)
		digest string
		events int
		bytes  int64
		params string // final ParamsDigest
	}{
		{"tiny", 7, func() (Workload, error) { return NewTiny(4, 7) }, goldenTinyDigest, goldenTinyEvents, goldenTinyBytes, goldenTinyParams},
		{"mf", 3, func() (Workload, error) { return NewMF(SizeSmall, 4, 3) }, goldenMFDigest, goldenMFEvents, goldenMFBytes, goldenMFParams},
		{"cifar", 5, func() (Workload, error) { return NewCIFAR(SizeSmall, 4, 5) }, goldenCIFARDigest, goldenCIFAREvents, goldenCIFARBytes, goldenCIFARParams},
	}
	for _, tc := range cases {
		for _, cc := range []codec.Config{{}, {Name: "raw"}} {
			wl, err := tc.build()
			if err != nil {
				t.Fatalf("%s: build workload: %v", tc.name, err)
			}
			digest, events, bytesOnWire, res := runDigest(t, wl, tc.seed, cc)
			if events != tc.events {
				t.Errorf("%s codec=%q: %d events, golden %d", tc.name, cc.Name, events, tc.events)
			}
			if bytesOnWire != tc.bytes {
				t.Errorf("%s codec=%q: %d bytes on wire, golden %d", tc.name, cc.Name, bytesOnWire, tc.bytes)
			}
			if digest != tc.digest {
				t.Errorf("%s codec=%q: trace digest %s, golden %s", tc.name, cc.Name, digest, tc.digest)
			}
			if res.ParamsDigest != tc.params {
				t.Errorf("%s codec=%q: params digest %s, golden %s", tc.name, cc.Name, res.ParamsDigest, tc.params)
			}
		}
	}
}
