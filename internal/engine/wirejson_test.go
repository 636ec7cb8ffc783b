package engine

import (
	"encoding/binary"
	"encoding/json"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// poolShapedRequest is a request with the benchmark pool's geometry: 13 user
// dims, 20 items × (8 features + 5 cover), 5 topics × ≤5 × 8 features, every
// float at full precision.
func poolShapedRequest(rng *rand.Rand) *Request {
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	req := &Request{UserFeatures: vec(13)}
	for i := 0; i < 20; i++ {
		req.Items = append(req.Items, Item{ID: 640 + i, Features: vec(8), Cover: vec(5), InitScore: rng.Float64()})
	}
	for j := 0; j < 5; j++ {
		seq := []SeqItem{}
		for k := rng.Intn(6); k > 0; k-- {
			seq = append(seq, SeqItem{Features: vec(8)})
		}
		req.TopicSequences = append(req.TopicSequences, seq)
	}
	return req
}

func mustJSON(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

type batchEnvelope struct {
	Requests []Request `json:"requests"`
}

// sameFloats compares bit for bit and tells nil from empty.
func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameRequest(a, b *Request) bool {
	if a.Tenant != b.Tenant || !sameFloats(a.UserFeatures, b.UserFeatures) ||
		(a.Items == nil) != (b.Items == nil) || len(a.Items) != len(b.Items) ||
		(a.TopicSequences == nil) != (b.TopicSequences == nil) || len(a.TopicSequences) != len(b.TopicSequences) {
		return false
	}
	for i := range a.Items {
		x, y := &a.Items[i], &b.Items[i]
		if x.ID != y.ID || math.Float64bits(x.InitScore) != math.Float64bits(y.InitScore) ||
			!sameFloats(x.Features, y.Features) || !sameFloats(x.Cover, y.Cover) {
			return false
		}
	}
	for j := range a.TopicSequences {
		x, y := a.TopicSequences[j], b.TopicSequences[j]
		if (x == nil) != (y == nil) || len(x) != len(y) {
			return false
		}
		for k := range x {
			if !sameFloats(x[k].Features, y[k].Features) {
				return false
			}
		}
	}
	return true
}

func sameRequests(a, b []Request) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameRequest(&a[i], &b[i]) {
			return false
		}
	}
	return true
}

// checkDecode holds the decoder to encoding/json on one body, read both as a
// single request and as an envelope: an answer must be encoding/json's
// answer; declining is always allowed. It reports what was accepted.
func checkDecode(t *testing.T, body []byte) (single, batch bool) {
	t.Helper()
	var got, want Request
	single = DecodeRequestJSON(body, &got)
	err := json.Unmarshal(body, &want)
	switch {
	case single && err != nil:
		t.Fatalf("decoder accepted %q, encoding/json says %v", body, err)
	case single && !sameRequest(&got, &want):
		t.Fatalf("decoder read %q as\n%+v\nencoding/json as\n%+v", body, got, want)
	case !single && !sameRequest(&got, &Request{}):
		t.Fatalf("declined %q but wrote %+v", body, got)
	}
	reqs, batch := DecodeBatchJSON(body)
	var env batchEnvelope
	err = json.Unmarshal(body, &env)
	switch {
	case batch && err != nil:
		t.Fatalf("batch decoder accepted %q, encoding/json says %v", body, err)
	case batch && !sameRequests(reqs, env.Requests):
		t.Fatalf("batch decoder read %q as\n%+v\nencoding/json as\n%+v", body, reqs, env.Requests)
	case !batch && reqs != nil:
		t.Fatalf("declined batch %q but returned %+v", body, reqs)
	}
	return single, batch
}

// checkSkim is checkDecode for the router's skim: a key must be the key of
// what encoding/json decodes.
func checkSkim(t *testing.T, body []byte) (single, batch bool) {
	t.Helper()
	key, single := UserKeyJSON(body, false)
	if single {
		var want Request
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("skim accepted %q, encoding/json says %v", body, err)
		}
		if ref := UserKey(&want); key != ref {
			t.Fatalf("skim key %#x of %q, UserKey %#x", key, body, ref)
		}
	}
	key, batch = UserKeyJSON(body, true)
	if batch {
		var env batchEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("batch skim accepted %q, encoding/json says %v", body, err)
		}
		if ref := BatchUserKey(env.Requests); key != ref {
			t.Fatalf("batch skim key %#x of %q, BatchUserKey %#x", key, body, ref)
		}
	}
	return single, batch
}

const validBody = `{"user_features":[0.1,0.2,0.3],"items":[{"id":7,"features":[0.5,0.1],"cover":[1,0],"init_score":0.9},{"id":8,"features":[0.2,0.7],"cover":[0,1],"init_score":0.4}],"topic_sequences":[[{"features":[0.5,0.2]}],[]]}`

// wireCases are the inputs the fuzz targets are seeded with and the table
// test pins: fast says whether the decoder must take the single-request
// reading itself (true) or must hand it to encoding/json (false).
var wireCases = []struct {
	name string
	body string
	fast bool
}{
	{"valid", validBody, true},
	{"empty object", `{}`, true},
	{"whitespace around", " \t\r\n" + validBody + "\n ", true},
	{"whitespace inside", `{ "user_features" : [ 1 , 2 ] , "items" : [ { "id" : 3 } ] }`, true},
	{"empty lists", `{"user_features":[],"items":[],"topic_sequences":[]}`, true},
	{"empty inner lists", `{"items":[{"features":[],"cover":[]},{}],"topic_sequences":[[],[{}],[{"features":[]}]]}`, true},
	{"tenant", `{"tenant":"shop-7","user_features":[1]}`, true},
	{"items before user", `{"items":[{"id":1}],"user_features":[1]}`, true},
	{"negative zero", `{"user_features":[-0,-0.0,0]}`, true},
	{"small exponent", `{"user_features":[1e-7,1E+2,2.5e-320,1e-999]}`, true},
	{"extremes", `{"user_features":[1e308,-1e308,0],"items":[{"id":-9223372036854775808,"init_score":1.7976931348623157e308}]}`, true},
	{"ids either side of 18 digits", `{"items":[{"id":-0},{"id":999999999999999999},{"id":-999999999999999999},{"id":1000000000000000000},{"id":9223372036854775807}]}`, true},
	{"subnormals", `{"user_features":[7.1e-322,-4.9e-324,2.2250738585072011e-308],"items":[{"cover":[5e-324,1e-310]}]}`, true},
	{"long literal", `{"user_features":[0.` + strings.Repeat("1", 400) + `]}`, true},
	{"unknown fields", `{"x":{"a":[1,"é\n\u00e9",true,false,null,{"b\"":-1.5e3}]},"user_features":[1],"items":[{"id":1,"y":"z"}]}`, true},
	{"unknown number out of range", `{"x":1e999,"user_features":[1]}`, true}, // encoding/json never converts a skipped value

	{"case-variant key", `{"items":[{"ID":1}]}`, false},
	{"case-variant top key", `{"User_Features":[1]}`, false},
	{"long s key", `{"u` + "ſ" + `er_features":[1]}`, false},
	{"escaped key", `{"items":[{"\u0069d":1}]}`, false},
	{"duplicate key", `{"items":[{"id":1,"id":2}]}`, false},
	{"duplicate list", `{"user_features":[1,2],"user_features":[3]}`, false},
	{"null list", `{"items":[{"features":null}]}`, false},
	{"null element", `{"user_features":[null,1]}`, false},
	{"null item", `{"items":[null]}`, false},
	{"null tenant", `{"tenant":null}`, false},
	{"top-level null", `null`, false},
	{"top-level array", `[]`, false},
	{"wrong type", `{"user_features":"nope"}`, false},
	{"wrong element type", `{"user_features":[true]}`, false},
	{"string id", `{"items":[{"id":"1"}]}`, false},
	{"fraction id", `{"items":[{"id":1.0}]}`, false},
	{"exponent id", `{"items":[{"id":1e2}]}`, false},
	{"id out of range", `{"items":[{"id":9223372036854775808}]}`, false},
	{"float out of range", `{"user_features":[1e999]}`, false},
	{"skipped float out of range", `{"items":[{"init_score":-1e999}]}`, false},
	{"long float out of range", `{"items":[{"cover":[` + strings.Repeat("9", 400) + `]}]}`, false},
	{"escaped tenant", `{"tenant":"a\tb"}`, false},
	{"non-ascii tenant", `{"tenant":"caf` + "é" + `"}`, false},
	{"bytes after value", `{} x`, false},
	{"second value", `{}{}`, false},
	{"deep unknown", `{"x":` + strings.Repeat("[", 100) + strings.Repeat("]", 100) + `}`, false},
	{"empty", ``, false},
	{"truncated", `{"user_features":[0.1,0.2,0.3],"items":[{"id":7,`, false},
	{"bare key", `{"id"`, false},
	{"leading zero", `{"user_features":[01]}`, false},
	{"lone minus", `{"user_features":[-]}`, false},
	{"bare fraction", `{"user_features":[1.]}`, false},
	{"bare exponent", `{"user_features":[1e]}`, false},
	{"plus sign", `{"user_features":[+1]}`, false},
	{"trailing comma", `{"user_features":[1,]}`, false},
	{"leading comma", `{,"user_features":[1]}`, false},
	{"missing colon", `{"user_features" [1]}`, false},
	{"control byte in skipped string", "{\"x\":\"a\x01b\"}", false},
	{"bad escape in skipped string", `{"x":"\q"}`, false},
	{"short unicode escape", `{"x":"\u12"}`, false},
	{"bad literal", `{"x":nul}`, false},
	{"nul byte", "{}\x00", false},
}

func batchOf(body string) string { return `{"requests":[` + body + `,` + body + `]}` }

// TestDecodeRequestJSONAgainstStd walks the table: every answer equals
// encoding/json's, the shapes that must ride the fast path do, and each
// refusal reason really declines — as a single request and inside an envelope.
func TestDecodeRequestJSONAgainstStd(t *testing.T) {
	for _, tc := range wireCases {
		single, _ := checkDecode(t, []byte(tc.body))
		if single != tc.fast {
			t.Errorf("%s: decoder accepted = %v, want %v", tc.name, single, tc.fast)
		}
		skimmed, _ := checkSkim(t, []byte(tc.body))
		if skimmed != tc.fast {
			t.Errorf("%s: skim accepted = %v, want %v", tc.name, skimmed, tc.fast)
		}
		if tc.body == "" || strings.ContainsAny(tc.body[:1], "n[") {
			continue // not an object: nothing to wrap
		}
		env := []byte(batchOf(tc.body))
		_, batch := checkDecode(t, env)
		_, batchSkimmed := checkSkim(t, env)
		// Inside an envelope, bytes after the value are a syntax error too.
		if batch != tc.fast {
			t.Errorf("%s: batch decoder accepted = %v, want %v", tc.name, batch, tc.fast)
		}
		if batchSkimmed != tc.fast {
			t.Errorf("%s: batch skim accepted = %v, want %v", tc.name, batchSkimmed, tc.fast)
		}
	}
	for _, env := range []string{`{}`, `{"requests":[]}`, `{"requests":[{}]}`, ` {"x":1,"requests":[{"items":[{"id":5}]}]} `} {
		if _, ok := checkDecode(t, []byte(env)); !ok {
			t.Errorf("batch decoder declined %s", env)
		}
		if _, ok := checkSkim(t, []byte(env)); !ok {
			t.Errorf("batch skim declined %s", env)
		}
	}
	for _, env := range []string{`{"requests":null}`, `{"Requests":[]}`, `{"requests":[],"requests":[]}`, `{"requests":{}}`, `{"requests":[{}]} x`} {
		if _, ok := checkDecode(t, []byte(env)); ok {
			t.Errorf("batch decoder accepted %s", env)
		}
		if _, ok := checkSkim(t, []byte(env)); ok {
			t.Errorf("batch skim accepted %s", env)
		}
	}
}

// TestDecodeRequestJSONPoolShaped: marshalled requests of the benchmark's
// shape — what production clients send — always take the fast path, the
// skim's key is UserKey's, and decoding one stays within its allocation
// ceiling.
func TestDecodeRequestJSONPoolShaped(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var envelope batchEnvelope
	for i := 0; i < 50; i++ {
		req := poolShapedRequest(rng)
		if i%2 == 1 {
			req.Tenant = "tenant-b"
		}
		envelope.Requests = append(envelope.Requests, *req)
		body := mustJSON(t, req)
		if ok, _ := checkDecode(t, body); !ok {
			t.Fatalf("decoder declined a marshalled request: %s", body)
		}
		if ok, _ := checkSkim(t, body); !ok {
			t.Fatalf("skim declined a marshalled request: %s", body)
		}
	}
	body := mustJSON(t, envelope)
	if _, ok := checkDecode(t, body); !ok {
		t.Fatal("batch decoder declined a marshalled envelope")
	}
	if _, ok := checkSkim(t, body); !ok {
		t.Fatal("batch skim declined a marshalled envelope")
	}

	// Four allocations today — one slab each for floats, items, the sequence
	// table and sequence items — of the ≈74 per list the benchmark bounds to
	// 6 % on bin_c1_unique; the ceiling leaves room for one more.
	one := mustJSON(t, poolShapedRequest(rng))
	if n := testing.AllocsPerRun(100, func() {
		var req Request
		if !DecodeRequestJSON(one, &req) {
			t.Fatal("declined")
		}
	}); n > 5 {
		t.Errorf("DecodeRequestJSON: %v allocations per pool-shaped request, ceiling 5", n)
	}
}

// TestDecodeRequestJSONStorage pins the storage contract: sub-slices of the
// slab are capacity-clamped, nothing aliases the body, the slab's presize is
// capped, and a request that outgrows the cap still decodes exactly.
func TestDecodeRequestJSONStorage(t *testing.T) {
	one := `{"tenant":"acme","user_features":[1,2],"items":[{"id":1,"features":[3,4],"cover":[5]},{"id":2}],"topic_sequences":[[{"features":[6]}],[{"features":[7]}]]}`
	body := []byte(batchOf(one))
	reqs, ok := DecodeBatchJSON(body)
	if !ok || len(reqs) != 2 {
		t.Fatalf("declined, or %d requests", len(reqs))
	}
	// Every list is full: appending reallocates instead of writing into the
	// slab, where the next list lives.
	first := &reqs[0]
	_ = append(first.UserFeatures, 99)
	_ = append(first.Items[0].Features, 99)
	_ = append(first.Items, Item{ID: 99})
	_ = append(first.TopicSequences[0], SeqItem{Features: []float64{99}})
	_ = append(first.TopicSequences, nil)
	for i := range body {
		body[i] = 'x'
	}
	want := Request{
		Tenant:       "acme",
		UserFeatures: []float64{1, 2},
		Items:        []Item{{ID: 1, Features: []float64{3, 4}, Cover: []float64{5}}, {ID: 2}},
		TopicSequences: [][]SeqItem{
			{{Features: []float64{6}}},
			{{Features: []float64{7}}},
		},
	}
	for i := range reqs {
		if !sameRequest(&reqs[i], &want) {
			t.Fatalf("appending to a field or recycling the body changed request %d:\n%+v", i, reqs[i])
		}
	}
	var req Request

	hostile := jsonWalk{b: []byte(strings.Repeat(",", 1<<20))}
	hostile.presize()
	if cap(hostile.floats) > maxSlabPresize {
		t.Fatalf("a body of commas presized the slab to %d floats", cap(hostile.floats))
	}
	if DecodeRequestJSON(hostile.b, &req) {
		t.Fatal("accepted a body of commas")
	}

	// 700 items × 13 floats: the slab regrows several times while earlier
	// items already hold sub-slices of its previous arrays.
	rng := rand.New(rand.NewSource(2))
	big := poolShapedRequest(rng)
	for len(big.Items) < 700 {
		big.Items = append(big.Items, poolShapedRequest(rng).Items...)
	}
	if ok, _ := checkDecode(t, mustJSON(t, big)); !ok {
		t.Fatal("declined a long list")
	}
}

// TestRouteKeyIsFNV1a pins the engine's inlined hash to hash/fnv: a drift
// in UserKey would send every user to another replica, and one in historyKey
// would turn every cache cold. historyKey's reference is the hash/fnv code it
// was written as, so its values stay what they always were.
func TestRouteKeyIsFNV1a(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var reqs []Request
	outer := fnv.New64a()
	var buf [8]byte
	put := func(h hash.Hash64, v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := 0; i < 20; i++ {
		req := poolShapedRequest(rng)
		h := fnv.New64a()
		for _, f := range req.UserFeatures {
			put(h, math.Float64bits(f))
		}
		if got := UserKey(req); got != h.Sum64() {
			t.Fatalf("UserKey %#x, hash/fnv %#x", got, h.Sum64())
		}
		put(outer, h.Sum64())
		for j, seq := range req.TopicSequences {
			put(h, uint64(int64(j))<<32|uint64(uint32(len(seq))))
			for _, it := range seq {
				for _, f := range it.Features {
					put(h, math.Float64bits(f))
				}
			}
		}
		if got := historyKey(req); got != h.Sum64() {
			t.Fatalf("historyKey %#x, hash/fnv %#x", got, h.Sum64())
		}
		reqs = append(reqs, *req)
	}
	if got := BatchUserKey(reqs); got != outer.Sum64() {
		t.Fatalf("BatchUserKey %#x, hash/fnv %#x", got, outer.Sum64())
	}
	if got := UserKey(&Request{}); got != fnv.New64a().Sum64() {
		t.Fatalf("empty UserKey %#x", got)
	}
}

func addWireSeeds(f *testing.F) {
	for _, tc := range wireCases {
		f.Add([]byte(tc.body))
	}
	f.Add([]byte(batchOf(validBody)))
	// The serve package's FuzzRerankRequest corpus.
	f.Add([]byte("{"))
	f.Add([]byte(`{"user_features":[0.1,0.2,0.3],"items":[],"topic_sequences":[[],[]]}`))
	f.Add([]byte(`{"user_features":[1e308,-1e308,0],"items":[{"id":-1,"features":[null,2],"cover":[1,0]}],"topic_sequences":[[],[]]}`))
	f.Add([]byte(`{"topic_sequences":[[{"features":[]}]]}`))
	f.Add([]byte(`{"user_features":[0,0,0],"items":[{"id":7,"features":[1,1],"cover":[1,0]},{"id":7,"features":[2,2],"cover":[0,1]}],"topic_sequences":[[],[]]}`))
	f.Add([]byte(`{"user_features":[1e308,-1e308,0],"items":[{"id":1,"features":[1e308,1e308],"cover":[1,1],"init_score":1e308},{"id":2,"features":[-1e308,0],"cover":[0,0],"init_score":-1e308}],"topic_sequences":[[],[]]}`))
}

// FuzzDecodeRequestJSON is the differential fuzz of the request decoder
// against encoding/json: for arbitrary bytes an accepted body must decode to
// exactly the Request (or envelope) encoding/json produces — floats bit for
// bit, nil told from empty. Declining is always allowed.
func FuzzDecodeRequestJSON(f *testing.F) {
	addWireSeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) { checkDecode(t, body) })
}

// FuzzRouteKeyJSON is the same for the router's skim: an answered key must be
// UserKey (BatchUserKey) of what encoding/json decodes.
func FuzzRouteKeyJSON(f *testing.F) {
	addWireSeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) { checkSkim(t, body) })
}

// benchBodies runs bench once per body fixture: "gaussian", one
// pool-shaped request of full-precision normal floats, and "dataset", the
// first 40 bodies of the benchmark's Taobao-like pool, cycled — the bodies
// the serving workloads send, subnormal covers included. bench's loop
// decodes bodies[i%len(bodies)].
func benchBodies(b *testing.B, bench func(b *testing.B, bodies [][]byte)) {
	gaussian := [][]byte{mustJSON(b, poolShapedRequest(rand.New(rand.NewSource(5))))}
	var pool [][]byte
	for _, req := range datasetRequests(b, 40) {
		pool = append(pool, mustJSON(b, &req))
	}
	for _, fx := range []struct {
		name   string
		bodies [][]byte
	}{{"gaussian", gaussian}, {"dataset", pool}} {
		b.Run(fx.name, func(b *testing.B) {
			n := 0
			for _, body := range fx.bodies {
				n += len(body)
			}
			b.SetBytes(int64(n / len(fx.bodies)))
			b.ReportAllocs()
			b.ResetTimer()
			bench(b, fx.bodies)
		})
	}
}

var benchSink uint64

func BenchmarkDecodeRequestJSON(b *testing.B) {
	benchBodies(b, func(b *testing.B, bodies [][]byte) {
		for i := 0; i < b.N; i++ {
			var req Request
			if !DecodeRequestJSON(bodies[i%len(bodies)], &req) {
				b.Fatal("declined")
			}
			benchSink += uint64(len(req.Items))
		}
	})
}

// BenchmarkDecodeRequestStd is the encoding/json reference the other two are
// read against.
func BenchmarkDecodeRequestStd(b *testing.B) {
	benchBodies(b, func(b *testing.B, bodies [][]byte) {
		for i := 0; i < b.N; i++ {
			var req Request
			if err := json.Unmarshal(bodies[i%len(bodies)], &req); err != nil {
				b.Fatal(err)
			}
			benchSink += UserKey(&req)
		}
	})
}

func BenchmarkRouteKeySkim(b *testing.B) {
	benchBodies(b, func(b *testing.B, bodies [][]byte) {
		for i := 0; i < b.N; i++ {
			key, ok := UserKeyJSON(bodies[i%len(bodies)], false)
			if !ok {
				b.Fatal("declined")
			}
			benchSink += key
		}
	})
}
