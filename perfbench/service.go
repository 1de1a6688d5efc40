package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/store"
)

// serviceWL puts reboundd's service.Server on a loopback listener over
// a fresh store, with the seeded quick scale as its default, and drives
// it with two closed-loop clients: each sends its next request only
// after the previous reply, as reboundd's callers do. The traffic is a
// seeded Zipf mix over a few dozen 8-proc quick cells: POST /v1/runs,
// where first touches simulate and the rest are store hits, plus about
// a quarter GET /v1/runs/{key} for keys the client already has. Store
// reads sit beside store writes and simulation under one admission
// queue, so a faster hit path that slows misses (or the reverse) shows.
// The snapshot plane is bypassed, and the working set is far below the
// store's 1024-record LRU, so hits are served from memory.
type serviceWL struct {
	seed    uint64
	sc      harness.Scale
	cells   []serviceCell
	streams [][]serviceReq // one per client

	st     *store.Store
	srv    *service.Server
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
}

type serviceCell struct {
	key  string
	body []byte
}

type serviceReq struct {
	get  bool
	cell int
}

// serviceApps × serviceSchemes are the cells, all at serviceProcs.
var (
	serviceApps = []string{"Barnes", "Cholesky", "FFT", "FMM", "Radix", "LU-C",
		"Ocean", "Water-Sp", "Blackscholes", "Fluidanimate", "Streamcluster", "Apache"}
	serviceSchemes = []string{"none", "Global", "Rebound"}
)

// The mix parameters are assumptions, not derived from recorded
// reboundd traffic (none exists yet); README.md gives the reasoning.
const (
	serviceProcs       = 8
	requestsPerClient  = 1500
	serviceGetFraction = 0.25
	serviceZipfS       = 1.1
)

func newService(seed uint64) *serviceWL {
	sc := harness.Quick
	sc.Seed = seed
	return &serviceWL{seed: seed, sc: sc}
}

// generate builds the cells and each client's request stream from the
// seed: Zipf-ranked cells over a seeded permutation; a GET goes to a
// cell the same client has already POSTed, so its key is known.
func (s *serviceWL) generate() error {
	s.cells = s.cells[:0]
	for _, app := range serviceApps {
		for _, scheme := range serviceSchemes {
			spec := harness.Spec{App: app, Procs: serviceProcs, Scheme: scheme, Scale: s.sc}
			if err := spec.Validate(); err != nil {
				return err
			}
			body, err := json.Marshal(service.RunRequest{App: app, Procs: serviceProcs, Scheme: scheme})
			if err != nil {
				return err
			}
			s.cells = append(s.cells, serviceCell{key: store.KeyOf(spec), body: body})
		}
	}
	rng := rand.New(rand.NewPCG(s.seed, 0x5e41ce))
	rank := rng.Perm(len(s.cells))
	zipf := rand.NewZipf(rng, serviceZipfS, 1, uint64(len(s.cells)-1))
	s.streams = make([][]serviceReq, clients)
	for c := range s.streams {
		posted := make(map[int]bool)
		var last int
		stream := make([]serviceReq, requestsPerClient)
		for k := range stream {
			cell := rank[zipf.Uint64()]
			if rng.Float64() < serviceGetFraction && len(posted) > 0 {
				if !posted[cell] {
					cell = last
				}
				stream[k] = serviceReq{get: true, cell: cell}
				continue
			}
			posted[cell], last = true, cell
			stream[k] = serviceReq{cell: cell}
		}
		s.streams[c] = stream
	}
	return nil
}

func (s *serviceWL) setup(dir string) error {
	if err := s.generate(); err != nil {
		return err
	}
	st, err := store.Open(filepath.Join(dir, "store"), 0)
	if err != nil {
		return err
	}
	srv, err := service.New(service.Config{Runner: harness.NewRunner(workers), Store: st, Scale: s.sc})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	s.st, s.srv = st, srv
	s.hs = &http.Server{Handler: srv}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.hs.Serve(ln)
	}()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}}
	return nil
}

func (s *serviceWL) teardown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.served
	s.srv.Close()
	s.client.CloseIdleConnections()
	s.st, s.srv, s.hs, s.client = nil, nil, nil, nil
}

// first POSTs the first cell (Barnes, no checkpointing), a miss that
// simulates it. It is the same cell for every seed, so that setup_s
// does not depend on which cell the seeded mix ranks first.
func (s *serviceWL) first() error {
	cell := s.cells[0]
	resp, err := s.client.Post(s.base+"/v1/runs", "application/json", bytes.NewReader(cell.body))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	var rr runResponse
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &rr); err != nil || rr.Key != cell.key || len(rr.Record) == 0 {
		return fmt.Errorf("answer for %s: key %q, %d record bytes (%v)", cell.key, rr.Key, len(rr.Record), err)
	}
	return nil
}

// runResponse is the part of service.RunResponse the checks read; the
// record stays in its wire bytes.
type runResponse struct {
	Key     string          `json:"key"`
	Cached  bool            `json:"cached"`
	Deduped bool            `json:"deduped"`
	Record  json.RawMessage `json:"record"`
}

func (s *serviceWL) run(tr *tracer) (*round, error) {
	r := newRound()
	var mu sync.Mutex
	first := make(map[int][]byte) // cell -> compact record bytes of its first answer
	lat := map[string][]float64{}
	var wg sync.WaitGroup
	start := now()
	root := tr.begin("bench.round", -1, 0, 0)
	for c, stream := range s.streams {
		wg.Add(1)
		go func(c int, stream []serviceReq) {
			defer wg.Done()
			lane := c + 1
			for k, rq := range stream {
				op := c*len(stream) + k + 1
				class, err := s.request(tr, root, op, lane, rq, first, &mu, lat, r)
				mu.Lock()
				if err != nil {
					r.fail("client %d request %d (%s cell %d): %v", c, k, class, rq.cell, err)
				}
				mu.Unlock()
			}
		}(c, stream)
	}
	wg.Wait()
	tr.end(root)
	r.wall, r.cpu = start.since()
	r.ops = clients * requestsPerClient

	// Service counters as /metrics reports them.
	var m struct {
		Hits   int64 `json:"cache_hits"`
		Misses int64 `json:"cache_misses"`
		Dedups int64 `json:"dedups"`
	}
	if resp, err := s.client.Get(s.base + "/metrics"); err != nil {
		r.fail("metrics: %v", err)
	} else {
		err := json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			r.fail("metrics: %v", err)
		}
	}
	if m.Hits+m.Misses > 0 {
		r.layer["service.store_hit_ratio"] = float64(m.Hits) / float64(m.Hits+m.Misses)
	}
	r.layer["service.dedups"] = float64(m.Dedups)
	hitTail, hitPct := tail(lat["hit"])
	r.layer["service.hit_p50_ms"] = median(lat["hit"])
	r.layer["service.hit_tail_ms"] = hitTail
	r.layer["service.get_p50_ms"] = median(lat["get"])
	r.layer["service.miss_p50_ms"] = median(lat["miss"])
	if tr == nil {
		fmt.Printf("service samples: %d hits (tail p%g), %d gets, %d misses, %d dedups\n",
			len(lat["hit"]), hitPct, len(lat["get"]), len(lat["miss"]), len(lat["dedup"]))
	}

	// Digest and simulated counters over the distinct records, in cell
	// order; every record was simulated in this round (fresh store).
	h := sha256.New()
	var agg simAcc
	for i := range s.cells {
		data, ok := first[i]
		if !ok {
			continue
		}
		h.Write(data)
		var rec store.Record
		if err := json.Unmarshal(data, &rec); err != nil || rec.Stats == nil {
			r.fail("record of cell %d: %v", i, err)
			continue
		}
		r.instr += rec.Stats.TotalInstructions()
		agg.add(rec.Stats, rec.Cycles)
	}
	r.digest = hex.EncodeToString(h.Sum(nil))[:16]
	agg.counters(r.sim)
	return r, nil
}

// request sends one request and checks its answer: a 2xx status, the
// right key, a record byte-equal to the first answer for its cell, and
// GET bytes equal to the POSTed record. It returns the request's class
// (hit, miss, dedup or get).
func (s *serviceWL) request(tr *tracer, parent, op, lane int, rq serviceReq, first map[int][]byte,
	mu *sync.Mutex, lat map[string][]float64, r *round) (string, error) {
	cell := s.cells[rq.cell]
	name := "service.post"
	if rq.get {
		name = "service.get"
	}
	t0 := time.Now()
	id := tr.begin(name, parent, op, lane)
	var resp *http.Response
	var err error
	if rq.get {
		resp, err = s.client.Get(s.base + "/v1/runs/" + cell.key)
	} else {
		resp, err = s.client.Post(s.base+"/v1/runs", "application/json", bytes.NewReader(cell.body))
	}
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	tr.end(id)
	d := float64(time.Since(t0)) / 1e6
	if err != nil {
		return name, err
	}
	if resp.StatusCode/100 != 2 {
		return name, fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	}

	class := "get"
	record := body
	if !rq.get {
		var rr runResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			return name, err
		}
		if rr.Key != cell.key {
			return name, fmt.Errorf("answered key %s, want %s", rr.Key, cell.key)
		}
		var buf bytes.Buffer
		if err := json.Compact(&buf, rr.Record); err != nil {
			return name, err
		}
		record = buf.Bytes()
		switch {
		case rr.Cached:
			class = "hit"
		case rr.Deduped:
			class = "dedup"
		default:
			class = "miss"
		}
	}
	// What the handler's own store calls cost, measured beside the
	// request (traced rounds only).
	if tr != nil && class == "hit" {
		id := tr.begin("store.get", parent, op, lane)
		_, ok, err := s.st.Get(cell.key)
		tr.end(id)
		if err != nil || !ok {
			return class, fmt.Errorf("store.Get after a hit: ok=%v err=%v", ok, err)
		}
	}
	if tr != nil && class == "get" {
		id := tr.begin("store.getraw", parent, op, lane)
		_, ok, err := s.st.GetRaw(cell.key)
		tr.end(id)
		if err != nil || !ok {
			return class, fmt.Errorf("store.GetRaw after a get: ok=%v err=%v", ok, err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	lat[class] = append(lat[class], d)
	r.lat = append(r.lat, d)
	if want, ok := first[rq.cell]; !ok {
		if rq.get {
			return class, fmt.Errorf("GET before any answer for the cell")
		}
		first[rq.cell] = append([]byte(nil), record...)
	} else if !bytes.Equal(want, record) {
		return class, fmt.Errorf("%s record differs from the first answer for the cell", class)
	}
	return class, nil
}
