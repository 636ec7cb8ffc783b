package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rerank"
	"repro/internal/serve"
	"repro/internal/serve/binproto"
)

// A probe replays a sample of the workload's own inputs through one layer's
// public function, alone and in-process, and times it the way slices are
// timed: in batches bracketed by the reference kernel, each batch's figure
// taken at reference speed, the median over valid batches reported.
//
// probeBudget sizes a probe: how many bracketed batches, about how long a
// batch runs, and how often a cheap call is made overall at the least. The
// smoke test shrinks it.
var probeBudget = struct {
	batches  int
	batchMS  float64
	minCalls int
}{batches: 7, batchMS: 25, minCalls: 2000}

// probed is what one probe measured.
type probed struct {
	ns     float64 // per call, at reference speed: median over batches
	p50NS  float64 // median single call, at reference speed
	allocs float64 // heap allocations per call
}

// probe times fn(i) for i = 0, 1, 2 …; fn picks its sample input from i.
func probe(fn func(i int)) probed {
	// Size a batch from a short trial (which also warms pools and caches).
	trial, start := 0, time.Now()
	for ; trial < 1 || time.Since(start) < 2*time.Millisecond; trial++ {
		fn(trial)
	}
	perCallMS := float64(time.Since(start).Nanoseconds()) / 1e6 / float64(trial)
	b := probeBudget
	calls := max(1, int(b.batchMS/perCallMS), (b.minCalls+b.batches-1)/b.batches)
	if float64(calls)*perCallMS > 4*b.batchMS {
		calls = max(1, int(4*b.batchMS/perCallMS))
	}

	var perBatch, single []float64
	var allocs uint64
	i, before := 0, refTime()
	for range b.batches {
		each := make([]float64, calls)
		m0 := mallocs()
		for c := range each {
			t0 := time.Now()
			fn(i)
			each[c] = float64(time.Since(t0).Nanoseconds())
			i++
		}
		allocs += mallocs() - m0
		after := refTime()
		s := slice{refBefore: before, refAfter: after}
		before = after
		if !s.valid() {
			continue
		}
		var sum float64
		for c := range each {
			each[c] *= s.speed()
			sum += each[c]
		}
		perBatch = append(perBatch, sum/float64(calls))
		single = append(single, each...)
	}
	return probed{ns: median(perBatch), p50NS: median(single), allocs: float64(allocs) / float64(b.batches*calls)}
}

// sample is the part of a serving workload's pool the probes replay.
type sample struct {
	reqs   []*engine.Request
	bodies [][]byte
	resps  []engine.Response
	insts  []*rerank.Instance
}

const sampleSize = 64

func (s *serving) sample() (*sample, error) {
	sm := &sample{}
	for k := 0; k < min(sampleSize, len(s.entries)); k++ {
		e := &s.entries[k]
		e.stamp(0)
		inst, err := engine.ToInstance(s.model.Cfg, &e.req)
		if err != nil {
			return nil, err
		}
		resp, err := s.fetch(k)
		if err != nil {
			return nil, err
		}
		body := e.body
		if body == nil {
			if body, err = json.Marshal(&e.req); err != nil {
				return nil, err
			}
		}
		sm.reqs = append(sm.reqs, &e.req)
		sm.bodies = append(sm.bodies, body)
		sm.resps = append(sm.resps, *resp)
		sm.insts = append(sm.insts, inst)
	}
	return sm, nil
}

// group16 returns 16 consecutive sample items starting at i (wrapping).
func group16[T any](xs []T, i int) []T {
	out := make([]T, 16)
	for j := range out {
		out[j] = xs[(i*16+j)%len(xs)]
	}
	return out
}

func us(ns float64) float64 { return ns / 1e3 }

// probeServe: the JSON frontend's own costs, and its handler called with no
// network under it.
func probeServe(out map[string]float64, m *core.Model, sm *sample) {
	n := len(sm.reqs)
	dec := probe(func(i int) {
		var req engine.Request
		_ = json.NewDecoder(bytes.NewReader(sm.bodies[i%n])).Decode(&req)
	})
	enc := probe(func(i int) { _ = json.NewEncoder(io.Discard).Encode(&sm.resps[i%n]) })
	var reqBytes, respBytes int
	for i := range sm.bodies {
		raw, _ := json.Marshal(&sm.resps[i])
		reqBytes, respBytes = reqBytes+len(sm.bodies[i]), respBytes+len(raw)+1
	}
	srv := serve.NewServer(m, engine.Manifest{Dataset: "bench", Config: m.Cfg}, serveConfig)
	srv.Log = func(string, ...any) {}
	defer srv.Engine.Close()
	h := srv.Handler()
	direct := probe(func(i int) {
		r := httptest.NewRequest(http.MethodPost, "/v1/rerank", bytes.NewReader(sm.bodies[i%n]))
		h.ServeHTTP(httptest.NewRecorder(), r)
	})
	out["serve.json_decode_us"] = us(dec.ns)
	out["serve.json_encode_us"] = us(enc.ns)
	out["serve.req_bytes_per_list"] = float64(reqBytes) / float64(n)
	out["serve.resp_bytes_per_list"] = float64(respBytes) / float64(n)
	out["serve.handler_direct_us_p50"] = us(direct.p50NS)
	out["serve.handler_direct_allocs"] = direct.allocs
}

// probeBinproto: the binary codec, both directions, with the buffer reuse a
// steady connection has.
func probeBinproto(out map[string]float64, sm *sample) {
	n := len(sm.reqs)
	var buf []byte
	reqFrames, respFrames := make([][]byte, n), make([][]byte, n)
	frameBytes := 0
	for i := range sm.reqs {
		reqFrames[i] = binproto.AppendRequest(nil, sm.reqs[i])
		respFrames[i] = binproto.AppendResponse(nil, &sm.resps[i])
		frameBytes += len(reqFrames[i]) + len(respFrames[i]) + 2*5 // two frame headers
	}
	encReq := probe(func(i int) { buf = binproto.AppendRequest(buf[:0], sm.reqs[i%n]) })
	decReq := probe(func(i int) { _, _ = binproto.DecodeRequest(reqFrames[i%n]) })
	encResp := probe(func(i int) { buf = binproto.AppendResponse(buf[:0], &sm.resps[i%n]) })
	decResp := probe(func(i int) { _, _ = binproto.DecodeResponse(respFrames[i%n]) })
	out["binproto.encode_request_us"] = us(encReq.ns)
	out["binproto.decode_request_us"] = us(decReq.ns)
	out["binproto.encode_response_us"] = us(encResp.ns)
	out["binproto.decode_response_us"] = us(decResp.ns)
	out["binproto.codec_allocs_per_list"] = encReq.allocs + decReq.allocs + encResp.allocs + decResp.allocs
	out["binproto.frame_bytes_per_list"] = float64(frameBytes) / float64(n)
}

// probeEngine: the engine called in-process, single requests and an
// envelope of 16, with the state cache the servers have.
func probeEngine(out map[string]float64, m *core.Model, sm *sample) {
	n := len(sm.reqs)
	ctx := context.Background()
	eng := engine.NewStatic(m, engine.Manifest{Dataset: "bench", Config: m.Cfg}, engine.Config{
		Budget: serveConfig.Budget, StateCacheBytes: serveConfig.StateCacheBytes, Batch: serveConfig.Batch,
	})
	eng.Log = func(string, ...any) {}
	defer eng.Close()
	// Flushing before each pass keeps the probe on the path bin_c1_unique
	// takes: no request finds its user's state.
	single := probe(func(i int) {
		if i%n == 0 {
			eng.FlushStateCache()
		}
		_, _ = eng.Rerank(ctx, sm.reqs[i%n])
	})
	toInst := probe(func(i int) { _, _ = engine.ToInstance(m.Cfg, sm.reqs[i%n]) })
	envelopes := make([][]engine.Request, n/16)
	for i := range envelopes {
		for _, r := range group16(sm.reqs, i) {
			envelopes[i] = append(envelopes[i], *r)
		}
	}
	batch := probe(func(i int) {
		if i%len(envelopes) == 0 {
			eng.FlushStateCache()
		}
		_, _ = eng.RerankBatch(ctx, envelopes[i%len(envelopes)])
	})
	out["engine.rerank_direct_us_p50"] = us(single.p50NS)
	out["engine.rerank_direct_allocs"] = single.allocs
	out["engine.to_instance_us"] = us(toInst.ns)
	out["engine.rerank_batch16_us_per_list"] = us(batch.ns) / 16
}

// probeCore: the model's scoring entry points, cold, batched, warm (the
// user state supplied) and through the legacy per-instance forward.
//
// It returns the median single cold call, for engine.self_us_p50.
func probeCore(out map[string]float64, m *core.Model, insts []*rerank.Instance) (scoreP50NS float64, err error) {
	n := len(insts)
	ctx := context.Background()
	states := make([]*core.UserState, n)
	for i, inst := range insts {
		st, err := m.EncodeUserState(ctx, inst)
		if err != nil {
			return 0, err
		}
		states[i] = st
	}
	b1 := probe(func(i int) { _, _ = m.ScoreBatch(ctx, insts[i%n:i%n+1]) })
	b16 := probe(func(i int) { _, _ = m.ScoreBatch(ctx, group16(insts, i)) })
	encode := probe(func(i int) { _, _ = m.EncodeUserState(ctx, insts[i%n]) })
	warm := probe(func(i int) { _, _, _ = m.ScoreBatchStates(ctx, insts[i%n:i%n+1], states[i%n:i%n+1]) })
	legacy := probe(func(i int) { _ = m.Scores(insts[i%n]) })
	out["core.score_batch1_us"] = us(b1.ns)
	out["core.score_batch16_us_per_list"] = us(b16.ns) / 16
	out["core.encode_user_state_us"] = us(encode.ns)
	out["core.score_warm_batch1_us"] = us(warm.ns)
	out["core.score_batch1_allocs"] = b1.allocs
	out["core.score_batch16_allocs_per_list"] = b16.allocs / 16
	out["core.legacy_scores_us"] = us(legacy.ns)
	out["core.legacy_scores_allocs"] = legacy.allocs
	return b1.p50NS, nil
}

// probeKernels: the GEMM shapes the model's recurrences issue — one LSTM
// step's [x,h]·W at 1 and at 16 stacked rows — a 256³ product serial and
// with the panel-parallel kernel, and the Bi-LSTM over a 20-item list.
func probeKernels(out map[string]float64, cfg core.Config, insts []*rerank.Instance) {
	rng := rand.New(rand.NewSource(1))
	in := cfg.UserDim + cfg.ItemDim + cfg.Topics + 1 + cfg.Hidden
	w := mat.RandNormal(in, 4*cfg.Hidden, 0, 1, rng)
	gemm := func(rows, inner, cols int, b *mat.Matrix) probed {
		a, o := mat.RandNormal(rows, inner, 0, 1, rng), mat.New(rows, cols)
		return probe(func(int) { mat.MatMulInto(o, a, b) })
	}
	out["mat.matmul_step_ns"] = gemm(1, in, 4*cfg.Hidden, w).ns
	out["mat.matmul_batch16_ns"] = gemm(16, in, 4*cfg.Hidden, w).ns
	big := mat.RandNormal(256, 256, 0, 1, rng)
	prev := mat.Workers()
	mat.SetWorkers(1)
	out["mat.matmul_256_serial_ns"] = gemm(256, 256, 256, big).ns
	mat.SetWorkers(0)
	out["mat.matmul_256_parallel_ns"] = gemm(256, 256, 256, big).ns
	mat.SetWorkers(prev)

	ps := nn.NewParamSet()
	bi := nn.NewBiLSTM(ps, "probe", in-cfg.Hidden, cfg.Hidden, rng)
	seq := mat.RandNormal(20, in-cfg.Hidden, 0, 1, rng)
	tape := nn.NewTape()
	out["nn.bilstm_list20_us"] = us(probe(func(int) {
		tape.Reset()
		bi.Forward(tape, tape.Constant(seq))
	}).ns)
	out["mat.madds_per_list"] = maddsPerList(cfg, insts)
}

// maddsPerList computes, from the layer shapes alone, the multiply-adds one
// scoring pass spends in GEMMs, averaged over the sample: Bi-LSTM steps,
// per-topic LSTM steps, self-attention, preference MLP and the two heads.
func maddsPerList(cfg core.Config, insts []*rerank.Instance) float64 {
	h, m := cfg.Hidden, cfg.Topics
	listIn := cfg.UserDim + cfg.ItemDim + m + 1
	seqIn := cfg.UserDim + cfg.ItemDim
	headIn := 2*h + m
	var total float64
	for _, inst := range insts {
		l := inst.L()
		steps := 0
		for _, seq := range inst.TopicSeqs {
			steps += min(len(seq), cfg.D)
		}
		total += float64(2*l*(listIn+h)*4*h + // Bi-LSTM, both directions
			steps*(seqIn+h)*4*h + // topic LSTMs
			2*m*m*h + // attention scores and mix
			m*(h*h+h) + // preference MLP
			2*l*(headIn*h+h)) // mean and deviation heads
	}
	return total / float64(len(insts))
}

// probeOffline: the offline round's parts on their own.
func probeOffline(out map[string]float64, o *offline) error {
	train, test := o.env.Train, o.env.Test
	epoch := func(workers int) (probed, error) {
		var err error
		p := probe(func(int) {
			m := o.newModel()
			cfg := m.TrainCfg
			cfg.Workers = workers
			if _, e := rerank.TrainListwise(m, train, cfg); e != nil {
				err = e
			}
		})
		return p, err
	}
	one, err := epoch(1)
	if err != nil {
		return err
	}
	two, err := epoch(2)
	if err != nil {
		return err
	}
	out["rerank.train_lists_per_s"] = float64(len(train)) / (two.ns / 1e9)
	out["rerank.train_allocs_per_list"] = two.allocs / float64(len(train))
	out["rerank.train_parallel_speedup"] = one.ns / two.ns

	m := o.newModel()
	eval := probe(func(int) { o.env.Evaluate(m, offlineCutoffs) })
	out["experiments.evaluate_lists_per_s"] = float64(len(test)) / (eval.ns / 1e9)
	out["experiments.evaluate_allocs_per_list"] = eval.allocs / float64(len(test))

	mmr, dpp := baselines.NewMMR(), baselines.NewDPP()
	out["diversify.mmr_us_per_list"] = us(probe(func(i int) { mmr.Scores(test[i%len(test)]) }).ns)
	out["diversify.dpp_us_per_list"] = us(probe(func(i int) { dpp.Scores(test[i%len(test)]) }).ns)

	// The metric functions Evaluate applies to one ranked list, on that
	// list's real expected clicks and coverage.
	type ranked struct {
		exp   []float64
		cover [][]float64
	}
	lists := make([]ranked, len(test))
	for i, inst := range test {
		lists[i].exp = o.env.DCM.ExpectedClicks(inst.User, inst.Items)
		lists[i].cover = inst.Cover
	}
	out["metrics.per_list_us"] = us(probe(func(i int) {
		r := lists[i%len(lists)]
		for _, k := range offlineCutoffs {
			metrics.ClickAtK(r.exp, k)
			metrics.NDCGAtK(r.exp, k)
			metrics.DivAtK(r.cover, o.env.Data.M(), k)
		}
	}).ns)
	return nil
}
