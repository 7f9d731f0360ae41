package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"mime/multipart"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chordal"
	"chordal/internal/graph"
	"chordal/internal/sched"
	"chordal/internal/service"
)

// openLoopRate is the service workload's fixed open-loop arrival rate
// in jobs per second, set once from the capacity measured with two
// closed-loop clients on a 2-CPU host when the benchmark was defined
// (36-50 jobs/s, median 41). It is about a third of that rather than
// half: at 19 jobs/s the queueing amplified the host's run-to-run speed
// drift, and p50 spread 0.23 of its median over alternating runs,
// against 0.16 at 12 jobs/s.
// It is a constant so that every run, and every commit compared, offers
// the same load.
const openLoopRate = 13.0

// serviceCycle is the length of one open-loop block and the closed-loop
// block after it. 3/5 of each cycle is open loop: with 2/5, p50 rested
// on about 155 samples a run and spread 0.18 of its median over ten
// seeds while closed-loop throughput spread 0.07; the within-run
// sampling error of the two is about even at 3/5.
const serviceCycle = 5 * time.Second

// serviceWarmup is the untimed closed loop before the first block.
const serviceWarmup = 2 * time.Second

// closedClients is the closed loop's client count: half the CPUs. With
// one client per CPU, two jobs ran at once on a 2-CPU shared host and
// throughput followed the host's speed about twice as closely: over ten
// interleaved pairs of runs its quartile spread was 0.30 of the median,
// against 0.17 with one client (open-loop p50 0.24 against 0.13).
func closedClients(nproc int) int { return max(1, nproc/2) }

// tenantWeights are the two tenants' fair-share weights; arrivals come
// from them in the same 1:3 proportion.
var tenantWeights = map[string]int{"a": 1, "b": 3}

// serviceJob is one request of the service workload's seeded job deck.
type serviceJob struct {
	class  string
	source string // generator spec; empty for an upload
	upload int    // index into the rendered uploads, -1 for none
	opts   service.JobOptions
	tenant string
}

// serviceFamilies are the small generator inputs the deck draws from.
// Quality's fill probe is most of each job's cost on them, as on any
// small input, while a job still takes tens of milliseconds, so one run
// holds enough jobs for a steady median and a tail percentile. (At
// rmat scale 10-12 the fill probe alone takes 1-2.5 s a job, which
// leaves a 2-CPU host about a dozen open-loop samples a run.)
var serviceFamilies = []string{
	"rmat-er:8:%d", "rmat-g:8:%d", "rmat-b:9:%d",
	"gse5140-crt:128:%d", "ws:400:6:0.1:%d", "geo:800:0.07:%d",
}

// uploadSpecs are rendered to edge-list bytes at set-up and submitted
// as multipart uploads.
var uploadSpecs = []string{"rmat-g:8:%d", "ws:400:6:0.1:%d", "geo:600:0.08:%d"}

// deckBlock fixes the job mix: each block of ten requests holds
// exactly these classes in a seeded order, so every window of the
// traffic has nearly the same mix on every seed and only the order and
// the generated inputs change. Two of ten repeat an earlier request;
// uploads come from three fixed graphs, so most uploads repeat too,
// which puts about 30% of requests on an earlier canonical spec.
var deckBlock = []string{
	"parallel", "parallel", "parallel", "serial", "dearing", "sharded",
	"elimination", "upload", "repeat", "repeat",
}

// serviceDeck builds n requests from the seed.
func serviceDeck(seed int64, n int) []serviceJob {
	r := rand.New(rand.NewPCG(uint64(seed), 0x5e41ce))
	var deck []serviceJob
	var fresh []int
	fam := r.IntN(len(serviceFamilies))
	for len(deck) < n {
		block := append([]string(nil), deckBlock...)
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, class := range block {
			if class == "repeat" && len(fresh) == 0 {
				class = "parallel"
			}
			tenant := "b"
			if r.IntN(4) == 0 {
				tenant = "a"
			}
			if class == "repeat" {
				j := deck[fresh[r.IntN(len(fresh))]]
				j.tenant = tenant
				deck = append(deck, j)
				continue
			}
			inst := seed*1000 + int64(len(deck))
			j := serviceJob{class: class, upload: -1, tenant: tenant}
			switch class {
			case "upload":
				j.upload = r.IntN(len(uploadSpecs))
			case "elimination":
				j.source = fmt.Sprintf("rmat-er:8:%d", inst)
				j.opts.Engine = chordal.EngineElimination
			default:
				j.source = fmt.Sprintf(serviceFamilies[fam%len(serviceFamilies)], inst)
				fam++
				switch class {
				case "serial", "dearing":
					j.opts.Engine = class
				case "sharded":
					j.opts.Engine, j.opts.Shards = chordal.EngineSharded, 2
				}
			}
			fresh = append(fresh, len(deck))
			deck = append(deck, j)
		}
	}
	return deck[:n]
}

// jobOutcome is what the client saw of one request.
type jobOutcome struct {
	Index   int     `json:"index"`
	Phase   int     `json:"phase"`
	Block   int     `json:"block"`
	Class   string  `json:"class"`
	Tenant  string  `json:"tenant"`
	Code    int     `json:"code"`
	Latency float64 `json:"latencySeconds"`
	// Run is the server's started-to-finished time of a job that ran.
	Run    float64 `json:"runSeconds,omitempty"`
	Err    string  `json:"error,omitempty"`
	status service.JobStatus
	repeat bool // the job id was returned to an earlier request
	doneAt time.Time
}

// serviceRig is the running server, its client and the rendered uploads.
type serviceRig struct {
	svc     *service.Server
	srv     *http.Server
	served  chan error
	base    string
	client  *http.Client
	uploads [][]byte
}

func (r *serviceRig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	r.client.CloseIdleConnections()
	r.svc.Close()
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// startRig serves the service handler on a loopback port over
// cleartext HTTP/2, so the client's requests and event streams share
// at most nproc connections. With tr set, every job submission is
// wrapped in a span carrying the job's id.
func startRig(seed int64, nproc int, tr *tracer) (*serviceRig, error) {
	tenants := map[string]sched.TenantConfig{}
	for name, w := range tenantWeights {
		tenants[name] = sched.TenantConfig{Weight: w}
	}
	svc := service.New(service.Config{Tenants: tenants})
	var h http.Handler = svc
	if tr != nil {
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost || r.URL.Path != "/v1/jobs" {
				svc.ServeHTTP(w, r)
				return
			}
			sp := tr.begin("", "service.submit", -1)
			svc.ServeHTTP(w, r)
			tr.end(sp)
			tr.setID(sp, strings.TrimPrefix(w.Header().Get("Location"), "/v1/jobs/"))
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	var protos http.Protocols
	protos.SetUnencryptedHTTP2(true)
	rig := &serviceRig{
		svc:    svc,
		srv:    &http.Server{Handler: h, Protocols: &protos},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{Protocols: &protos, MaxConnsPerHost: nproc}},
	}
	go func() { rig.served <- rig.srv.Serve(ln) }()
	resp, err := rig.client.Get(rig.base + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err == nil {
		for _, spec := range uploadSpecs {
			var g *chordal.Graph
			if g, err = loadSource(fmt.Sprintf(spec, seed)); err != nil {
				break
			}
			var buf bytes.Buffer
			if err = graph.WriteEdgeList(&buf, g); err != nil {
				break
			}
			rig.uploads = append(rig.uploads, buf.Bytes())
		}
	}
	if err != nil {
		rig.close()
		return nil, err
	}
	return rig, nil
}

// submit posts one job and returns the status code and job status.
func (r *serviceRig) submit(ctx context.Context, j serviceJob) (int, service.JobStatus, error) {
	var st service.JobStatus
	var body io.Reader
	ctype := "application/json"
	if j.upload >= 0 {
		var buf bytes.Buffer
		mw := multipart.NewWriter(&buf)
		fw, err := mw.CreateFormFile("graph", "graph.txt")
		if err != nil {
			return 0, st, err
		}
		fw.Write(r.uploads[j.upload])
		opts, _ := json.Marshal(j.opts)
		if err := mw.WriteField("options", string(opts)); err != nil {
			return 0, st, err
		}
		if err := mw.Close(); err != nil {
			return 0, st, err
		}
		body, ctype = &buf, mw.FormDataContentType()
	} else {
		data, err := json.Marshal(service.JobRequest{Source: j.source, Options: j.opts})
		if err != nil {
			return 0, st, err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+"/v1/jobs", body)
	if err != nil {
		return 0, st, err
	}
	req.Header.Set("Content-Type", ctype)
	req.Header.Set("X-Tenant", j.tenant)
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, st, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, st, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, st, fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	return resp.StatusCode, st, json.Unmarshal(data, &st)
}

// awaitDone follows the job's event stream until its terminal "done"
// event and returns the status it carries.
func (r *serviceRig) awaitDone(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return st, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st)
			return st, err
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	return st, fmt.Errorf("events of %s ended before done", id)
}

// get fetches a path and decodes or returns the body.
func (r *serviceRig) get(path string) ([]byte, error) {
	resp, err := r.client.Get(r.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return data, err
}

func runService(b *bench) error {
	ctx := context.Background()
	var rigs []*serviceRig
	err := b.timeSetup(func(int) error {
		rig, err := startRig(b.seed, b.nproc, b.tr)
		if err == nil {
			rigs = append(rigs, rig)
		}
		return err
	})
	// Only the last repetition's server takes traffic.
	for i, r := range rigs {
		if i < len(rigs)-1 {
			if cerr := r.close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	rig := rigs[len(rigs)-1]
	defer rig.close()

	deck := serviceDeck(b.seed, 20000)
	var mu sync.Mutex
	var outcomes []*jobOutcome
	seen := map[string]bool{}
	do := func(i, phase, block int, due time.Time) *jobOutcome {
		j := deck[i]
		o := &jobOutcome{Index: i, Phase: phase, Block: block, Class: j.class, Tenant: j.tenant}
		code, st, err := rig.submit(ctx, j)
		o.Code = code
		if err == nil {
			mu.Lock()
			o.repeat = seen[st.ID]
			seen[st.ID] = true
			mu.Unlock()
			st, err = rig.awaitDone(ctx, st.ID)
		}
		o.doneAt = time.Now()
		o.Latency = o.doneAt.Sub(due).Seconds()
		o.status = st
		if st.Started != nil && st.Finished != nil && o.Code == http.StatusAccepted {
			o.Run = st.Finished.Sub(*st.Started).Seconds()
		}
		if err != nil {
			o.Err = err.Error()
		}
		mu.Lock()
		outcomes = append(outcomes, o)
		mu.Unlock()
		return o
	}

	heap := startHeapSampler()
	// The run alternates blocks of the two phases, so that each samples
	// a shared host's speed across the whole run rather than one stretch
	// of it: on a 2-CPU host, closed-loop throughput drifted by a third
	// within a single 12-second stretch. Each block drains before the
	// next starts, so open-loop jobs never share the server with the
	// closed loop.
	cycles := max(1, int(b.seconds/serviceCycle))
	openFor := b.seconds * 3 / 5 / time.Duration(cycles)
	closedFor := b.seconds * 2 / 5 / time.Duration(cycles)
	window := min(time.Second, closedFor)
	perBlock := int(closedFor / window)
	// Phase 1 arrivals: one Poisson stream at the fixed rate over the
	// open blocks laid end to end.
	r := rand.New(rand.NewPCG(uint64(b.seed), 0xa221))
	var dues []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(r.ExpFloat64() / openLoopRate * float64(time.Second))
		if t > openFor*time.Duration(cycles) {
			break
		}
		dues = append(dues, t)
	}
	var next atomic.Int64 // next deck index
	var wg sync.WaitGroup
	// closedLoop runs closedClients clients, each submitting its next
	// request when the last one is done, for d, waits until every
	// request has finished and returns when it started.
	closedLoop := func(phase, block int, d time.Duration) time.Time {
		start := time.Now()
		for range closedClients(b.nproc) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Since(start) < d {
					i := int(next.Add(1) - 1)
					if i >= len(deck) {
						return
					}
					do(i, phase, block, time.Now())
				}
			}()
		}
		wg.Wait()
		return start
	}
	// Phase 0 warms the server up untimed: the first open-loop block
	// after set-up had a p50 up to 1.5 times the later blocks'. Its jobs
	// are still checked.
	closedLoop(0, 0, serviceWarmup)
	var lag time.Duration
	closedStarts := make([]time.Time, cycles)
	k := 0
	for c := range cycles {
		// Phase 1: open-loop arrivals; each request is timed from when
		// it was due.
		start := time.Now()
		for ; k < len(dues) && dues[k] <= openFor*time.Duration(c+1); k++ {
			due := start.Add(dues[k] - openFor*time.Duration(c))
			time.Sleep(time.Until(due))
			lag = max(lag, time.Since(due))
			i := int(next.Add(1) - 1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				do(i, 1, c, due)
			}()
		}
		wg.Wait()
		// Phase 2: a closed loop measures throughput.
		closedStarts[c] = closedLoop(2, c, closedFor)
	}
	peak := heap.peakMiB()

	var lat []float64
	var hits, dedup, shed float64
	// Throughput is read per one-second window of the closed blocks; the
	// median window resists a passing stall on a shared host better than
	// the total does. Jobs still running when their block ended are left
	// out.
	windows := perBlock * cycles
	jobsW := make([]float64, windows)
	edgesW := make([]float64, windows)
	for _, o := range outcomes {
		ok := o.Err == "" && o.status.State == service.StateDone && o.status.Metrics != nil &&
			o.status.Metrics.Chordal != nil && *o.status.Metrics.Chordal
		b.check(ok, "job %d (%s, tenant %s): code %d state %q %s", o.Index, o.Class, o.Tenant, o.Code, o.status.State, o.Err)
		switch {
		case o.Code == http.StatusTooManyRequests:
			shed++
		case o.Code == http.StatusOK:
			hits++
		case o.repeat:
			dedup++
		}
		switch w := int(o.doneAt.Sub(closedStarts[o.Block]) / window); {
		case o.Phase == 1:
			lat = append(lat, o.Latency)
		case o.Phase == 2 && ok && w < perBlock:
			jobsW[o.Block*perBlock+w] += 1 / window.Seconds()
			edgesW[o.Block*perBlock+w] += float64(o.status.Metrics.InputEdges) / 1e6 / window.Seconds()
		}
	}
	checkStart := time.Now()
	b.checkServiceResults(ctx, rig, deck, outcomes)
	b.detail["outcomes"] = outcomes
	b.detail["openLoopRate"] = openLoopRate
	b.detail["closedLoopJobsPerWindow"] = jobsW
	b.detail["checkSeconds"] = time.Since(checkStart).Seconds()
	if v, pct, n, ok := tail(lat); ok {
		b.detail["tail"] = map[string]float64{"seconds": v, "percentile": pct, "samples": float64(n)}
	} else {
		b.detail["tail"] = fmt.Sprintf("not defined: %d open-loop samples, fewer than 11", n)
	}
	n := float64(len(outcomes))
	if b.tr == nil {
		b.set("peak_heap_mb", "MiB", peak)
		b.setMedian("p50_s", "s", lat)
		b.setMedian("ops_per_s", "1/s", jobsW)
		b.setMedian("medges_per_s", "Medges/s", edgesW)
		return nil
	}
	var waits []float64
	for _, o := range outcomes {
		st := o.status
		if o.Code == http.StatusAccepted && !o.repeat && st.Started != nil {
			waits = append(waits, st.Started.Sub(st.Created).Seconds())
			b.tr.record(st.ID, "sched.wait", -1, st.Created, *st.Started)
		}
	}
	b.set("sched.wait_s", "s", median(waits))
	b.set("sched.shed", "count", shed)
	shareErr, err := rig.shareError()
	if err != nil {
		return err
	}
	b.set("sched.share_err", "ratio", shareErr)
	b.set("service.submit_s", "s", median(seconds(b.tr.durations("service.submit"))))
	b.set("service.cache_hit_ratio", "ratio", hits/n)
	b.set("service.dedup_ratio", "ratio", dedup/n)
	b.set("service.gen_lag_s", "s", lag.Seconds())
	return nil
}

// shareError is the largest gap between a tenant's served share and
// its weight share, from the scheduler snapshot.
func (r *serviceRig) shareError() (float64, error) {
	data, err := r.get("/v1/scheduler")
	if err != nil {
		return 0, err
	}
	var st sched.Stats
	if err := json.Unmarshal(data, &st); err != nil {
		return 0, err
	}
	total := 0
	for _, w := range tenantWeights {
		total += w
	}
	worst := 0.0
	for _, t := range st.Tenants {
		if w, ok := tenantWeights[t.Tenant]; ok {
			d := t.ServedSharePct/100 - float64(w)/float64(total)
			worst = max(worst, d, -d)
		}
	}
	return worst, nil
}

// checkServiceResults compares each distinct job's result bytes with
// the library's result for the same canonical spec, computed through
// the mirrored call sequence (traced, with quality, in the traced run).
func (b *bench) checkServiceResults(ctx context.Context, rig *serviceRig, deck []serviceJob, outcomes []*jobOutcome) {
	uploads := make([]*chordal.Graph, len(rig.uploads))
	refs := map[string][]byte{}
	checked := map[string]bool{}
	tally := &layerTally{}
	for _, o := range outcomes {
		st := o.status
		if st.State != service.StateDone || checked[st.ID] {
			continue
		}
		checked[st.ID] = true
		j := deck[o.Index]
		source := j.source
		var input *chordal.Graph
		if j.upload >= 0 {
			source = chordal.UploadSource("edges", sha256.Sum256(rig.uploads[j.upload]))
			if uploads[j.upload] == nil {
				g, err := graph.ReadEdgeList(bytes.NewReader(rig.uploads[j.upload]), 0)
				if err != nil {
					b.fail("job %d: parsing upload: %v", o.Index, err)
					continue
				}
				uploads[j.upload] = g
			}
			input = uploads[j.upload]
		}
		spec, err := j.opts.Spec(source)
		var key string
		if err == nil {
			key, err = spec.Canonical()
		}
		if err != nil {
			b.fail("job %d: spec: %v", o.Index, err)
			continue
		}
		want, ok := refs[key]
		if !ok {
			sp := b.tr.begin("ref:"+key, "service.reference", -1)
			m, err := mirror(ctx, b.tr, "ref:"+key, sp, spec, input, b.tr != nil)
			b.tr.end(sp)
			if err != nil {
				b.fail("job %d: reference run: %v", o.Index, err)
				continue
			}
			if b.tr != nil {
				tally.add(key, m)
				b.prov.addTuning(m.er.Tuning)
			}
			var buf bytes.Buffer
			if err := graph.WriteBinary(&buf, m.sub); err != nil {
				b.fail("job %d: encoding reference: %v", o.Index, err)
				continue
			}
			want = buf.Bytes()
			refs[key] = want
		}
		got, err := rig.get("/v1/jobs/" + st.ID + "/result?format=bin")
		b.check(err == nil && bytes.Equal(got, want), "job %d (%s): result bytes differ from the library's for %s (%v)", o.Index, j.class, key, err)
	}
	if b.tr != nil {
		tally.report(b)
	}
}
