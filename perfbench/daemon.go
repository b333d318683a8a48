package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mahjong"
	"mahjong/internal/server"
)

// The daemon-repeat mix: a few seeded programs crossed with analyses,
// submitted as IR over loopback HTTP to an in-process mahjongd.
const (
	daemonProfile  = "pmd"
	daemonPrograms = 3
	// epochJobs is how many measured jobs one daemon serves before the
	// next is started. The daemon keeps every finished job (program and
	// report, about 18 MB each on this profile) for its lifetime, so a
	// bounded lifetime keeps the run's memory bounded.
	epochJobs = 18
	// pollEvery is the client's status-poll interval.
	pollEvery = 3 * time.Millisecond
)

var daemonAnalyses = []string{"ci", "2obj", "2type"}

// jobView is the part of mahjongd's job view the benchmark reads.
type jobView struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Error    string     `json:"error"`
	CacheHit bool       `json:"abstraction_cache_hit"`
	Degraded bool       `json:"degraded"`
	Result   *jobResult `json:"result"`
}

// jobResult is a done job's answer, less its timing.
type jobResult struct {
	Scalable       bool  `json:"scalable"`
	Work           int64 `json:"work"`
	CSObjects      int   `json:"cs_objects"`
	CSMethods      int   `json:"cs_methods"`
	CallGraphEdges int   `json:"call_graph_edges"`
	PolyCallSites  int   `json:"poly_call_sites"`
	MayFailCasts   int   `json:"may_fail_casts"`
	Reachable      int   `json:"reachable_methods"`
	Objects        int   `json:"objects"`
	MergedObjects  int   `json:"merged_objects"`
}

// Outcome classes of a job; every class but done counts against ok_rate.
const (
	outDone      = "done"
	outFailed    = "failed"
	outRejected  = "rejected"
	outShed      = "shed"
	outCancelled = "cancelled"
	outDegraded  = "degraded"
)

type finishedJob struct {
	combo int
	class string
	view  jobView
}

// daemonRun drives the mix against a sequence of daemons.
type daemonRun struct {
	b       *bench
	texts   []string
	bodies  [][]byte // per combo: program k, analysis a at k*len(daemonAnalyses)+a
	clients int
	http    *http.Client
	ops     atomic.Int64

	mu   sync.Mutex
	jobs []finishedJob
}

// submit posts one job and polls it to a terminal state, recording its
// round trips on rec.
func (d *daemonRun) submit(rec *recorder, url string, combo int) (finishedJob, error) {
	op := int(d.ops.Add(1)) - 1
	root := rec.start(op, -1, "op")
	defer root.end(nil)
	fj := finishedJob{combo: combo}

	s := rec.start(op, root.ID(), "daemon.submit")
	resp, err := d.http.Post(url+"/jobs", "application/json", bytes.NewReader(d.bodies[combo]))
	if err != nil {
		fj.class = outFailed
		return fj, err
	}
	err = decodeBody(resp, &fj.view)
	s.end(nil)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		fj.class = outRejected
		return fj, nil
	case resp.StatusCode != http.StatusAccepted || err != nil:
		fj.class = outFailed
		return fj, fmt.Errorf("submit: HTTP %d: %v", resp.StatusCode, err)
	}

	s = rec.start(op, root.ID(), "daemon.done")
	defer s.end(nil)
	for fj.view.State == "queued" || fj.view.State == "running" {
		time.Sleep(pollEvery)
		resp, err := d.http.Get(url + "/jobs/" + fj.view.ID)
		if err != nil {
			fj.class = outFailed
			return fj, err
		}
		if err := decodeBody(resp, &fj.view); err != nil {
			fj.class = outFailed
			return fj, err
		}
	}
	v := fj.view
	switch {
	case v.State == "done" && v.Degraded:
		fj.class = outDegraded
	case v.State == "done":
		fj.class = outDone
	case v.State == "cancelled" && strings.Contains(v.Error, "shed"):
		fj.class = outShed
	case v.State == "cancelled":
		fj.class = outCancelled
	default:
		fj.class = outFailed
	}
	return fj, nil
}

func decodeBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

func (d *daemonRun) record(fj finishedJob, err error) {
	if err != nil {
		fmt.Printf("job of combo %d: %v\n", fj.combo, err)
	}
	d.mu.Lock()
	d.jobs = append(d.jobs, fj)
	d.mu.Unlock()
}

// epoch starts a daemon with the default configuration, fills its
// abstraction cache with one job per program (set-up), then runs
// epochJobs jobs from d.clients closed-loop clients (measured), recording
// their round trips on rec.
func (d *daemonRun) epoch(rec *recorder) (phase, error) {
	b := d.b
	t0 := time.Now()
	srv := server.New(server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return phase{}, err
	}
	hs := &http.Server{Handler: srv}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		_ = hs.Shutdown(context.Background()) // every job is terminal; nothing to drain
		<-served
		srv.Close()
		d.http.CloseIdleConnections()
	}()
	url := "http://" + ln.Addr().String()

	warm := make([]finishedJob, daemonPrograms)
	var wg sync.WaitGroup
	for k := 0; k < daemonPrograms; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			fj, err := d.submit(nil, url, k*len(daemonAnalyses))
			warm[k] = fj
			d.record(fj, err)
		}(k)
	}
	wg.Wait()
	b.setupS = append(b.setupS, time.Since(t0).Seconds())

	p := measure(func() phase {
		var next atomic.Int64
		lat := make([][]float64, d.clients)
		var cw sync.WaitGroup
		for c := 0; c < d.clients; c++ {
			cw.Add(1)
			go func(c int) {
				defer cw.Done()
				for {
					n := int(next.Add(1)) - 1
					if n >= epochJobs {
						return
					}
					t := time.Now()
					fj, err := d.submit(rec, url, n%len(d.bodies))
					lat[c] = append(lat[c], msSince(t))
					d.record(fj, err)
				}
			}(c)
		}
		cw.Wait()
		var q phase
		for _, l := range lat {
			q.opsMS = append(q.opsMS, l...)
		}
		return q
	})

	if rec != nil {
		// Out of band, after the measured jobs: the parse and the cache
		// load a cache-hit job pays inside the daemon, on the same text
		// and the same persisted abstraction the daemon serves.
		for k, fj := range warm {
			if fj.class != outDone {
				continue
			}
			prog, err := b.parse(-1, -1, "daemon.ir", d.texts[k])
			if err != nil {
				return p, err
			}
			resp, err := d.http.Get(url + "/jobs/" + fj.view.ID + "/abstraction")
			if err != nil {
				return p, err
			}
			var raw json.RawMessage
			if err := decodeBody(resp, &raw); err != nil {
				return p, err
			}
			s := rec.start(-1, -1, "daemon.cache_load")
			abs, err := mahjong.LoadAbstraction(bytes.NewReader(raw), prog)
			s.end(map[string]int64{"bytes": int64(len(raw))})
			if err != nil {
				b.problem("reloading the abstraction of job %s: %v", fj.view.ID, err)
			} else if fj.view.Result != nil && abs.MergedObjects != fj.view.Result.MergedObjects {
				b.problem("reloaded abstraction of job %s has %d objects, the job reports %d",
					fj.view.ID, abs.MergedObjects, fj.view.Result.MergedObjects)
			}
		}
	}
	return p, nil
}

// run starts daemons until the measured jobs of the plain ones fill the
// run's seconds. In a traced run every other daemon's jobs are traced,
// and the traced daemons run as long again.
func (d *daemonRun) run() (all, plain, traced phase, err error) {
	limit := time.Duration(d.b.seconds * float64(time.Second))
	for i := 0; plain.elapsed < limit || (d.b.trace && traced.elapsed < limit); i++ {
		var rec *recorder
		if d.b.trace && i%2 == 1 {
			rec = d.b.rec
		}
		p, err := d.epoch(rec)
		if err != nil {
			return all, plain, traced, err
		}
		all.add(p)
		if rec == nil {
			plain.add(p)
		} else {
			traced.add(p)
		}
		runtime.GC()
	}
	return all, plain, traced, nil
}

// classify counts outcomes and returns the jobs recorded so far.
func (d *daemonRun) classify() (map[string]int, []finishedJob) {
	d.mu.Lock()
	defer d.mu.Unlock()
	counts := map[string]int{}
	for _, fj := range d.jobs {
		counts[fj.class]++
	}
	return counts, append([]finishedJob(nil), d.jobs...)
}

// daemonRepeat: an in-process mahjongd over loopback HTTP serves a
// repeated mix; after each daemon's first pass every job is an
// abstraction-cache hit.
func daemonRepeat(b *bench) error {
	d := &daemonRun{b: b, clients: min(2, runtime.NumCPU())}
	d.http = &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: d.clients, MaxIdleConnsPerHost: d.clients},
	}
	for k := 0; k < daemonPrograms; k++ {
		text, err := programText(daemonProfile, b.seed*daemonPrograms+int64(k))
		if err != nil {
			return err
		}
		d.texts = append(d.texts, text)
		for _, a := range daemonAnalyses {
			body, err := json.Marshal(server.JobSpec{IR: text, Analysis: a})
			if err != nil {
				return err
			}
			d.bodies = append(d.bodies, body)
		}
	}

	if b.trace {
		b.rec = newRecorder()
	}
	all, plain, traced, err := d.run()
	if err != nil {
		return err
	}
	counts, jobs := d.classify()
	hits := 0
	for _, fj := range jobs {
		if fj.view.CacheHit {
			hits++
		}
	}
	fmt.Printf("daemon jobs %d: done %d, failed %d, rejected %d, shed %d, cancelled %d, degraded %d; cache hits %d\n",
		len(jobs), counts[outDone], counts[outFailed], counts[outRejected], counts[outShed],
		counts[outCancelled], counts[outDegraded], hits)
	b.attempted += len(jobs)
	b.failed += len(jobs) - counts[outDone]
	if b.trace {
		b.set("daemon.op_ms_p95", quantile(all.opsMS, 0.95))
		b.set("daemon.cache_hit_ratio", float64(hits)/float64(len(jobs)))
		var sizes []float64
		for _, s := range b.rec.byName("daemon.cache_load") {
			sizes = append(sizes, float64(s.Counts["bytes"]))
		}
		b.set("daemon.cache_bytes", median(sizes))
		b.tracedFrom(all, plain.opsMS, traced.opsMS)
	} else {
		b.endToEndFrom(plain)
		b.set("ok_rate", float64(counts[outDone])/float64(len(jobs)))
	}
	return d.check(jobs)
}

// check compares every done job with an in-process Analyze of the same
// program and analysis, and reports the mix's precision from the jobs.
func (d *daemonRun) check(jobs []finishedJob) error {
	b := d.b
	ref := make([]jobResult, len(d.bodies))
	for k, text := range d.texts {
		p, err := mahjong.ParseProgram("daemon.ir", text)
		if err != nil {
			return err
		}
		abs, err := mahjong.BuildAbstraction(p, mahjong.AbstractionOptions{})
		if err != nil {
			return err
		}
		for a, analysis := range daemonAnalyses {
			rep, err := mahjong.Analyze(p, mahjong.Config{Analysis: analysis, Heap: mahjong.HeapMahjong, Abstraction: abs})
			if err != nil {
				return err
			}
			ref[k*len(daemonAnalyses)+a] = jobResult{
				Scalable: rep.Scalable, Work: rep.Work, CSObjects: rep.CSObjects, CSMethods: rep.CSMethods,
				CallGraphEdges: rep.Metrics.CallGraphEdges, PolyCallSites: rep.Metrics.PolyCallSites,
				MayFailCasts: rep.Metrics.MayFailCasts, Reachable: rep.Metrics.Reachable,
				Objects: abs.Objects, MergedObjects: abs.MergedObjects,
			}
		}
	}
	seen := make([]bool, len(ref))
	mismatches := 0
	for _, fj := range jobs {
		if fj.class != outDone {
			continue
		}
		if fj.view.Result == nil || *fj.view.Result != ref[fj.combo] {
			if mismatches == 0 {
				b.problem("job %s (combo %d): %+v, in-process reference %+v", fj.view.ID, fj.combo, fj.view.Result, ref[fj.combo])
			}
			mismatches++
			continue
		}
		seen[fj.combo] = true
	}
	if mismatches > 1 {
		b.problem("%d daemon job views differ from the in-process reference", mismatches)
	}
	var sum outcome
	var missing []int
	for c, r := range ref {
		if !seen[c] {
			missing = append(missing, c)
		}
		sum.Merged += r.MergedObjects
		sum.Metrics.CallGraphEdges += r.CallGraphEdges
		sum.Metrics.PolyCallSites += r.PolyCallSites
		sum.Metrics.MayFailCasts += r.MayFailCasts
		sum.Metrics.Reachable += r.Reachable
	}
	sort.Ints(missing)
	if len(missing) > 0 {
		b.problem("no job of combos %v finished done and correct", missing)
	}
	b.precision(sum)
	return nil
}
