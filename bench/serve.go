package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"rheem"
	"rheem/internal/core"
	"rheem/internal/datagen"
	"rheem/internal/jobs"
	"rheem/internal/rescache"
	"rheem/latin"
	"rheem/restapi"
)

// serve_mixed: REST callers submitting small RheemLatin jobs to an in-process
// server. Three script templates share one predicate literal drawn
// Zipf(1.2) over serveLiterals values, so plan fingerprints repeat and the
// result cache sees both hits and misses.

const (
	// serveLiterals sets the share of first-time scripts. With ISSUE.md's
	// 499 values that share fell from 28 % to 7 % across a 15 s window, so
	// job_s_p90 sat on the edge between the hit path (3 ms) and the miss
	// path (20 ms) and its spread was 0.21. With ten times the values it
	// stays between 38 % and 17 %: p50 is a hit, p90 is a miss, all window.
	serveLiterals = 4986
	serveGroups   = 7
	serveKeys     = 9973 // column 0 is i mod serveKeys; literal l filters col 0 > 2l
	serveWarmups  = 20
	pollInterval  = time.Millisecond
)

// scriptKey identifies one script: template and literal.
type scriptKey struct{ template, literal int }

// script is a request body and the answer a correct server gives to it.
type script struct {
	source string
	body   []byte
	sink   string
	// want maps a row's key (group or word) to its expected numeric fields.
	want map[string][]float64
}

// serveInstance is a running server with its inputs and oracles.
type serveInstance struct {
	ctx    *rheem.Context
	reg    *latin.Registry
	srv    *restapi.Server
	http   *httptest.Server
	oracle *serveOracle
	sizes  map[string]int
	probes probeInputs
	dir    string
	setupS float64

	mu   sync.Mutex
	seen map[scriptKey]bool // scripts completed before: the next one should hit the cache
}

func serveUDFs(reg *latin.Registry) {
	reg.RegisterKey("groupOf", func(q any) any { return q.(core.Record)[2] })
	reg.RegisterKey("dimKey", func(q any) any { return q.(core.Record)[0] })
	reg.RegisterKey("first", func(q any) any { return q.(core.Record)[0] })
	reg.RegisterReduce("addRecs", func(a, b any) any {
		ra, rb := a.(core.Record), b.(core.Record)
		return core.Record{ra.Int(0) + rb.Int(0), ra.Float(1) + rb.Float(1), ra[2]}
	})
	// weigh turns a joined (record, dimension) pair into (group, value ×
	// weight, 1) so the reduce-by below it is a plain field-wise sum.
	reg.RegisterMap("weigh", func(q any) any {
		pair := q.(core.Record)
		r, d := pair[0].(core.Record), pair[1].(core.Record)
		return core.Record{r[2], r.Float(1) * d.Float(1), int64(1)}
	})
	reg.RegisterReduce("addWeighed", func(a, b any) any {
		ra, rb := a.(core.Record), b.(core.Record)
		return core.Record{ra[0], ra.Float(1) + rb.Float(1), ra.Int(2) + rb.Int(2)}
	})
	reg.RegisterFlatMap("splitWords", splitWords)
	reg.RegisterKey("wordOf", func(q any) any { return q.(core.KV).Key })
	reg.RegisterReduce("sumCounts", func(a, b any) any {
		ka, kb := a.(core.KV), b.(core.KV)
		return core.KV{Key: ka.Key, Value: ka.Value.(int64) + kb.Value.(int64)}
	})
}

func scriptSource(k scriptKey) (source, sink string) {
	switch k.template {
	case 0: // filter-where + reduce-by
		return fmt.Sprintf(`recs = load collection recs;
f = filter recs where col 0 > %d;
agg = reduceby f key groupOf using addRecs;
collect agg;`, 2*k.literal), "agg"
	case 1: // two-input join + reduce-by + sort
		return fmt.Sprintf(`recs = load collection recs;
dims = load collection dims;
f = filter recs where col 0 > %d;
j = join f, dims on groupOf, dimKey;
w = map j using weigh;
agg = reduceby w key first using addWeighed;
ranked = sort agg;
collect ranked;`, 2*k.literal), "ranked"
	default: // word count over a small DFS file
		return fmt.Sprintf(`lines = load 'dfs://small.txt';
few = filter lines where col -1 >= 'w%05d';
tokens = flatmap few using splitWords;
counts = reduceby tokens key wordOf using sumCounts;
collect counts;`, k.literal), "counts"
	}
}

// scriptDraws returns a seeded source of scripts: template 60/30/10, literal
// Zipf(1.2).
func scriptDraws(seed int64) func() scriptKey {
	rng := newRand(seed)
	zipf := rand.NewZipf(rng, 1.2, 1, serveLiterals-1)
	return func() scriptKey {
		t := 0
		switch p := rng.Float64(); {
		case p >= 0.9:
			t = 2
		case p >= 0.6:
			t = 1
		}
		return scriptKey{template: t, literal: int(zipf.Uint64())}
	}
}

// serveOracle answers every script in plain Go from the generated inputs.
type serveOracle struct {
	// above[v][g] sums, over the records of group g with column 0 >= v:
	// column 0, column 1, column 1 × the group's weight, and the count.
	above [][serveGroups][4]float64
	lines []string // the small file, sorted

	mu     sync.Mutex
	counts map[int]map[string][]float64 // word counts by literal, on demand
}

func newServeOracle(recs, dims []core.Record, lines []string) *serveOracle {
	o := &serveOracle{
		above:  make([][serveGroups][4]float64, serveKeys+1),
		lines:  append([]string(nil), lines...),
		counts: map[int]map[string][]float64{},
	}
	sort.Strings(o.lines)
	for i, r := range recs {
		g, v, x := i%serveGroups, r[0].(int64), r[1].(float64)
		a := &o.above[v][g]
		a[0] += float64(v)
		a[1] += x
		a[2] += x * dims[g][1].(float64)
		a[3]++
	}
	for v := serveKeys - 1; v >= 0; v-- {
		for g := range o.above[v] {
			for f := range o.above[v][g] {
				o.above[v][g][f] += o.above[v+1][g][f]
			}
		}
	}
	return o
}

// script builds the request for k and the rows a correct server answers.
func (o *serveOracle) script(k scriptKey) *script {
	src, sink := scriptSource(k)
	body, _ := json.Marshal(map[string]string{"script": src}) // a map of strings cannot fail
	sc := &script{source: src, body: body, sink: sink, want: map[string][]float64{}}
	if k.template == 2 {
		sc.want = o.wordCounts(k.literal)
		return sc
	}
	from := min(2*k.literal+1, serveKeys) // col 0 > 2l
	for g, a := range o.above[from] {
		if a[3] == 0 {
			continue
		}
		if k.template == 0 {
			sc.want[fmt.Sprintf("g%d", g)] = []float64{a[0], a[1]}
		} else {
			sc.want[fmt.Sprintf("g%d", g)] = []float64{a[2], a[3]}
		}
	}
	return sc
}

// wordCounts counts the words of the lines >= the literal's word.
func (o *serveOracle) wordCounts(literal int) map[string][]float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if c, ok := o.counts[literal]; ok {
		return c
	}
	c := map[string][]float64{}
	floor := fmt.Sprintf("w%05d", literal)
	for _, l := range o.lines[sort.SearchStrings(o.lines, floor):] {
		for _, w := range strings.Fields(l) {
			if c[w] == nil {
				c[w] = make([]float64, 1)
			}
			c[w][0]++
		}
	}
	o.counts[literal] = c
	return c
}

// verify decodes a result payload and compares it with the script's oracle.
func (s *script) verify(payload []byte) ([]string, error) {
	var resp restapi.RunResponse
	if err := json.Unmarshal(payload, &resp); err != nil {
		return nil, fmt.Errorf("decode result: %w", err)
	}
	if resp.Truncated {
		return nil, fmt.Errorf("result truncated")
	}
	rows := resp.Sinks[s.sink]
	if len(rows) != len(s.want) {
		return nil, fmt.Errorf("%d rows, want %d", len(rows), len(s.want))
	}
	for _, raw := range rows {
		q, err := core.DecodeQuantum(raw)
		if err != nil {
			return nil, err
		}
		var key string
		var got []float64
		switch v := q.(type) {
		case core.KV: // word counts
			key, got = v.Key.(string), []float64{float64(v.Value.(int64))}
		case core.Record:
			if ks, ok := v[0].(string); ok { // (group, weighed sum, count)
				key, got = ks, []float64{v.Float(1), v.Float(2)}
			} else { // (key sum, value sum, group)
				key, got = v.String(2), []float64{v.Float(0), v.Float(1)}
			}
		default:
			return nil, fmt.Errorf("unexpected row %v", q)
		}
		want, ok := s.want[key]
		if !ok || len(want) != len(got) {
			return nil, fmt.Errorf("unexpected row key %q", key)
		}
		for i := range want {
			if !sameFloat(got[i], want[i]) {
				return nil, fmt.Errorf("row %q = %v, want %v", key, got, want)
			}
		}
	}
	return resp.Platforms, nil
}

func setUpServe(o options, rep int) (*serveInstance, error) {
	dir, err := freshDir(o.workDir, "serve_mixed", rep)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	rng := newRand(o.seed)
	recs := make([]core.Record, scaled(20000, o.scale))
	for i := range recs {
		recs[i] = core.Record{int64(i % serveKeys), rng.Float64() * 50, fmt.Sprintf("g%d", i%serveGroups)}
	}
	dims := make([]core.Record, serveGroups)
	for i := range dims {
		dims[i] = core.Record{fmt.Sprintf("g%d", i), 0.5 + rng.Float64()}
	}
	lines := datagen.Words(scaled(200, o.scale), 9, serveLiterals, o.seed)

	ctx, err := rheem.NewContext(rheem.Config{
		FastSimulation: true,
		DFSDir:         filepath.Join(dir, "dfs"),
		ResultCache:    rescache.New(rescache.Options{MaxBytes: 64 << 20}),
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.DFS.WriteLines("small.txt", lines); err != nil {
		return nil, err
	}
	reg := latin.NewRegistry()
	serveUDFs(reg)
	reg.RegisterCollection("recs", datagen.AnySlice(recs))
	reg.RegisterCollection("dims", datagen.AnySlice(dims))
	srv := restapi.NewWithOptions(ctx, reg, restapi.Options{Jobs: jobs.Options{Workers: runtime.NumCPU()}})

	oracle0 := time.Now()
	oracle := newServeOracle(recs, dims, lines)
	oracleS := time.Since(oracle0).Seconds()

	s := &serveInstance{
		ctx: ctx, reg: reg, srv: srv, http: httptest.NewServer(srv), oracle: oracle, dir: dir,
		sizes: map[string]int{"records": len(recs), "dims": len(dims), "small_file_lines": len(lines),
			"literals": serveLiterals, "clients": runtime.NumCPU()},
		probes: probeInputs{records: datagen.AnySlice(recs), lines: lines},
		seen:   map[scriptKey]bool{},
	}
	draw := scriptDraws(o.seed - 1)
	for i := 0; i < serveWarmups; i++ {
		if j := s.doJob(draw(), nil, 0); j.err != nil {
			s.close()
			return nil, fmt.Errorf("serve_mixed: warm-up job: %w", j.err)
		}
	}
	s.setupS = time.Since(t0).Seconds() - oracleS
	return s, nil
}

// close stops the HTTP server and the job manager and removes the files.
func (s *serveInstance) close() error {
	s.http.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Close(ctx); err != nil {
		return err
	}
	return os.RemoveAll(s.dir)
}

// serveJob is one job as its client saw it.
type serveJob struct {
	key       scriptKey
	id        string
	started   time.Time
	total     float64 // POST sent → result body read
	submit    float64
	fetch     float64
	polls     int
	bytes     int
	hit       bool // the script had completed before, so the cache should serve it
	traced    bool // harness spans were on for this job
	rejected  bool
	platforms []string
	err       error
}

func (s *serveInstance) request(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.http.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.http.Client().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// doJob submits one script, polls its status every pollInterval, fetches the
// result and, after the clock stops, checks it. rec may be nil.
func (s *serveInstance) doJob(k scriptKey, rec *recorder, n int) serveJob {
	sc := s.oracle.script(k)
	j := serveJob{key: k, traced: rec != nil}
	s.mu.Lock()
	j.hit = s.seen[k]
	s.mu.Unlock()

	t0 := time.Now()
	j.started = t0
	job := rec.begin("job", n, -1)
	sp := rec.begin("submit", n, job)
	code, raw, err := s.request("POST", "/v1/jobs", sc.body)
	rec.end(sp)
	j.submit = time.Since(t0).Seconds()
	if err != nil {
		j.err = err
		return j
	}
	if code != http.StatusAccepted {
		j.rejected = code == http.StatusTooManyRequests
		j.err = fmt.Errorf("submit: status %d: %s", code, raw)
		return j
	}
	var sub restapi.SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		j.err = err
		return j
	}
	j.id = sub.ID

	for {
		sp := rec.begin("poll", n, job)
		_, raw, err := s.request("GET", "/v1/jobs/"+j.id, nil)
		rec.end(sp)
		j.polls++
		if err != nil {
			j.err = err
			return j
		}
		var st restapi.JobStatusResponse
		if err := json.Unmarshal(raw, &st); err != nil {
			j.err = err
			return j
		}
		if jobs.State(st.State).Terminal() {
			if st.State != string(jobs.StateSucceeded) {
				j.err = fmt.Errorf("job %s %s: %s", j.id, st.State, st.Error)
				return j
			}
			break
		}
		time.Sleep(pollInterval)
	}

	t1 := time.Now()
	sp = rec.begin("result", n, job)
	code, raw, err = s.request("GET", "/v1/jobs/"+j.id+"/result", nil)
	rec.end(sp)
	rec.end(job)
	j.fetch = time.Since(t1).Seconds()
	j.total = time.Since(t0).Seconds()
	j.bytes = len(raw)
	if err != nil {
		j.err = err
		return j
	}
	if code != http.StatusOK {
		j.err = fmt.Errorf("result: status %d: %s", code, raw)
		return j
	}
	j.platforms, j.err = sc.verify(raw)
	if j.err == nil {
		s.mu.Lock()
		s.seen[k] = true
		s.mu.Unlock()
	}
	return j
}

// window runs one closed-loop client per CPU for d and returns every job.
// Client c draws its scripts from its own generator seeded from the run's
// seed and c. With a recorder, every second job of each
// client runs under harness spans, so traced and untraced jobs see the same
// cache warmth and the same host.
func (s *serveInstance) window(o options, d time.Duration, rec *recorder) []serveJob {
	clients := runtime.NumCPU()
	per := make([][]serveJob, clients)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			draw := scriptDraws(o.seed + int64(c) + 1)
			for n := 0; time.Now().Before(deadline); n++ {
				r := rec
				if n%2 == 0 {
					r = nil
				}
				per[c] = append(per[c], s.doJob(draw(), r, clients*n+c))
			}
		}(c)
	}
	wg.Wait()
	var all []serveJob
	for _, js := range per {
		all = append(all, js...)
	}
	return all
}

// tally folds jobs into a pass result and returns the ones that succeeded.
func tally(res *passResult, all []serveJob) (good []serveJob) {
	platforms := map[string]bool{}
	for _, p := range res.Platforms {
		platforms[p] = true
	}
	for _, j := range all {
		res.Attempted++
		if j.err != nil {
			res.fail(j.err)
			continue
		}
		good = append(good, j)
		for _, p := range j.platforms {
			platforms[p] = true
		}
	}
	res.Platforms = res.Platforms[:0]
	for p := range platforms {
		res.Platforms = append(res.Platforms, p)
	}
	sort.Strings(res.Platforms)
	return good
}

func untracedServe(o options) (*passResult, error) {
	start := time.Now()
	s, err := setUpServe(o, 0)
	if err != nil {
		return nil, err
	}
	setups := []float64{s.setupS}

	res := &passResult{Sizes: s.sizes}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	all := s.window(o, time.Duration(o.seconds*float64(time.Second)), nil)
	runtime.ReadMemStats(&after)
	var starts, times []float64
	for _, j := range tally(res, all) {
		starts, times = append(starts, j.started.Sub(t0).Seconds()), append(times, j.total)
	}
	quiet, blockS := quietBlocks(starts, times, o.seconds, serveBlockS)
	res.QuietBlocks, res.BlockS = len(quiet), blockS
	if err := s.close(); err != nil {
		return nil, err
	}

	// As in untracedBatch: the window runs on the first set-up.
	for rep := 1; rep < o.setups; rep++ {
		s, err := setUpServe(o, rep)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setupS)
		if err := s.close(); err != nil {
			return nil, err
		}
	}

	res.Metrics = endToEnd(setups, quiet, blockS, after.TotalAlloc-before.TotalAlloc, res.Attempted)
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// tracedServe produces the per-layer metrics of serve_mixed: an HTTP window
// in which every second job runs under harness spans; then the scripts run
// step by step inside the process for the layers a REST caller cannot see;
// then the probes.
func tracedServe(o options) (*passResult, error) {
	start := time.Now()
	s, err := setUpServe(o, 0)
	if err != nil {
		return nil, err
	}
	defer s.close()
	res := &passResult{Sizes: s.sizes, Metrics: map[string]float64{}}
	m := res.Metrics
	rec := &recorder{}

	stopSampler := sampleHeap(m)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	codec0 := core.CodecBytesMoved()
	all := s.window(o, time.Duration(o.seconds*0.6*float64(time.Second)), rec)
	runtime.ReadMemStats(&after)
	codec1 := core.CodecBytesMoved()
	stopSampler()
	var plainTimes, tracedTimes []float64
	for _, j := range tally(res, all) {
		if j.traced {
			tracedTimes = append(tracedTimes, j.total)
		} else {
			plainTimes = append(plainTimes, j.total)
		}
	}
	m["trace.overhead_share"] = ratio(median(tracedTimes)-median(plainTimes), median(plainTimes))
	jobsDone := float64(len(all))
	m["core.codec_bytes_moved_per_job"] = ratio(float64(codec1-codec0), jobsDone)
	m["runtime.gc_cycles_per_job"] = ratio(float64(after.NumGC-before.NumGC), jobsDone)
	m["runtime.gc_pause_s_per_job"] = ratio(float64(after.PauseTotalNs-before.PauseTotalNs)/1e9, jobsDone)

	cs := s.ctx.Cache.Stats(false)
	m["rescache.hits"] = float64(cs.Hits)
	m["rescache.misses"] = float64(cs.Misses)
	m["rescache.hit_ratio"] = ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses))
	m["rescache.stores"] = float64(cs.Stores)
	m["rescache.evictions"] = float64(cs.Evictions)
	m["rescache.bytes"] = float64(cs.Bytes)

	// What the REST caller and the job manager saw, per job.
	sm := samples{}
	var queue, submit, fetch, hit, miss []float64
	polls, payload, rejected := 0.0, 0.0, 0.0
	for i, j := range all {
		if j.rejected {
			rejected++
		}
		if j.err != nil {
			continue
		}
		submit = append(submit, j.submit)
		fetch = append(fetch, j.fetch)
		polls += float64(j.polls)
		payload += float64(j.bytes)
		if j.hit {
			hit = append(hit, j.total)
		} else {
			miss = append(miss, j.total)
		}
		if st, err := s.srv.Jobs.Get(j.id); err == nil {
			queue = append(queue, st.StartedAt.Sub(st.SubmittedAt).Seconds())
			sm.add("jobs.run_s_p50", st.FinishedAt.Sub(st.StartedAt).Seconds())
		}
		if i%20 == 0 { // the trace store keeps the latest 256 jobs only
			if tr, ok := s.srv.Traces.Get(j.id); ok {
				sm.add("trace.spans_per_job", float64(countSpans(tr.Snapshot())))
			}
		}
	}
	good := float64(len(submit))
	m["jobs.queue_wait_s_p50"] = median(queue)
	m["jobs.queue_wait_s_p90"] = quantile(queue, 0.9)
	m["jobs.rejected"] = rejected
	m["restapi.submit_s_p50"] = median(submit)
	m["restapi.result_fetch_s_p50"] = median(fetch)
	m["restapi.polls_per_job"] = ratio(polls, good)
	m["restapi.result_bytes_per_job"] = ratio(payload, good)
	m["rescache.hit_job_s_p50"] = median(hit)
	m["rescache.miss_job_s_p50"] = median(miss)

	// The same scripts step by step, inside the process.
	draw := scriptDraws(o.seed - 2)
	n := 0
	err = phase(200, o.seconds*0.2, func(int) error {
		n++
		res.Attempted++
		if err := s.steppedJob(rec, draw(), -n, sm); err != nil {
			res.fail(err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sm.medians(m)

	if err := runProbes(s.probes, s.ctx.DFS, m); err != nil {
		return nil, err
	}
	if err := rec.writeChrome(filepath.Join(o.workDir, "trace-serve_mixed.json")); err != nil {
		return nil, err
	}
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// steppedJob does inside the process what the server does for one job —
// compile, cache probe, optimize, execute, collect — one public call at a
// time under harness spans.
func (s *serveInstance) steppedJob(rec *recorder, k scriptKey, n int, sm samples) error {
	sc := s.oracle.script(k)
	job := rec.begin("job", n, -1)
	sp := rec.begin("compile", n, job)
	compiled, err := latin.Compile(sc.source, s.reg)
	compile := rec.end(sp)
	if err != nil {
		return err
	}
	// Begin fingerprints the plan, probes every subtree and, on a hit,
	// rewrites the plan to scan the cached result; Close releases its claims.
	sp = rec.begin("cache-probe", n, job)
	s.ctx.Cache.Begin(context.Background(), compiled.Plan).Close()
	probe := rec.end(sp)
	sp = rec.begin("optimize", n, job)
	ep, err := s.ctx.Optimize(compiled.Plan)
	optimize := rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.begin("execute", n, job)
	res, err := s.ctx.ExecutePlanned(compiled.Plan, ep, rheem.WithResultCache(false))
	run := rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.begin("collect", n, job)
	rows, err := res.CollectFrom(compiled.Sinks[sc.sink])
	collect := rec.end(sp)
	rec.end(job)
	if err != nil {
		return err
	}
	if len(rows) != len(sc.want) {
		return fmt.Errorf("stepped %v: %d rows, want %d", k, len(rows), len(sc.want))
	}
	sm.add("latin.compile_s", compile)
	sm.add("rescache.probe_s", probe)
	sm.add("optimizer.optimize_s", optimize)
	sm.add("executor.run_s", run)
	sm.add("rheem.collect_s", collect)
	sm.add("optimizer.plan_operators", float64(len(compiled.Plan.Operators())))
	sm.add("optimizer.platform_count", float64(len(res.Platforms())))
	addProfile(sm, res.Profile(), run)
	return nil
}
