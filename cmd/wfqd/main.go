// Command wfqd is the line-rate serving daemon built on internal/engine:
// a long-running process that admits flows through internal/admission,
// ranks their packets with a pluggable rank program (-discipline:
// SCFQ virtual time by default, or STFQ, VirtualClock, EDF, SRPT,
// LSTF), submits them to the sharded sort/retrieve engine, and exposes
// live observability over HTTP — GET /metrics (text exposition of engine, lane-balance,
// fault-domain, and memory-fabric gauges), /healthz (liveness),
// /readyz (readiness), and /stats.json.
//
// Work arrives three ways, combinable:
//
//   - -trace file.csv   replay an arrival trace (internal/trace format)
//   - -synthetic N      generate N packets of Fig. 6 synthetic load
//   - -ingest tcp:addr | unix:path
//     accept "flow size_bytes" lines over a socket
//
// Quickstart (see README):
//
//	wfqd -synthetic 100000 -listen 127.0.0.1:8080 &
//	curl -s http://127.0.0.1:8080/metrics
//
//wfqlint:ignore-file determinism wfqd is the wall-clock serving daemon: uptime, socket deadlines, and replay pacing are real time by design (DESIGN.md §11)
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wfqsort/internal/admission"
	"wfqsort/internal/engine"
	"wfqsort/internal/packet"
	"wfqsort/internal/police"
	"wfqsort/internal/rank"
	"wfqsort/internal/trace"
	"wfqsort/internal/traffic"
)

type config struct {
	listen     string
	ingest     string
	traceFile  string
	synthetic  int
	profile    string
	lanes      int
	laneCap    int
	ringSize   int
	shards     int
	batch      int
	policy     string
	discipline string
	flows      int
	capBps     float64
	seed       int64
	rate       float64
	linger     bool
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("wfqd", flag.ContinueOnError)
	var c config
	fs.StringVar(&c.listen, "listen", "127.0.0.1:8080", "HTTP observability address")
	fs.StringVar(&c.ingest, "ingest", "", "packet ingest socket: tcp:host:port or unix:/path")
	fs.StringVar(&c.traceFile, "trace", "", "arrival trace CSV to replay (internal/trace format)")
	fs.IntVar(&c.synthetic, "synthetic", 0, "generate N synthetic packets (Fig. 6 tag profiles)")
	fs.StringVar(&c.profile, "profile", "bell", "synthetic tag profile: bell|left|uniform")
	fs.IntVar(&c.lanes, "lanes", 4, "sorter lanes (power of two, 1..64)")
	fs.IntVar(&c.laneCap, "lane-capacity", 1024, "tag-store links per lane")
	fs.IntVar(&c.ringSize, "ring", 256, "per-lane submission ring depth")
	fs.IntVar(&c.shards, "shards", 0, "SPSC shards per lane's submission ring (1..64, 0 = engine default)")
	fs.IntVar(&c.batch, "batch", 64, "drain batch size")
	fs.StringVar(&c.policy, "policy", "block", "backpressure policy: block|drop-tail|red")
	fs.StringVar(&c.discipline, "discipline", "scfq",
		"rank program driving the tagger: scfq|stfq|vclock|edf|srpt|lstf (edf/lstf use a uniform 10ms per-flow deadline/slack budget)")
	fs.IntVar(&c.flows, "flows", 8, "admission-controlled flows")
	fs.Float64Var(&c.capBps, "capacity-bps", 40e9, "modelled link capacity for WFQ tagging")
	fs.Int64Var(&c.seed, "seed", 1, "synthetic load seed")
	fs.Float64Var(&c.rate, "rate", 0, "synthetic packets/sec (0 = full speed)")
	fs.BoolVar(&c.linger, "linger", false, "keep serving HTTP after finite work completes")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	return c, nil
}

// validate rejects flag combinations that would misbehave at runtime,
// with documented errors, before any engine state is built: a
// zero-capacity submission ring or batch would wedge the datapath, and
// non-positive lane/flow/capacity settings have no meaningful serving
// interpretation.
func (c config) validate() error {
	if c.lanes < 1 || c.lanes > 64 || c.lanes&(c.lanes-1) != 0 {
		return fmt.Errorf("wfqd: -lanes %d must be a power of two in 1..64", c.lanes)
	}
	if c.laneCap < 2 {
		return fmt.Errorf("wfqd: -lane-capacity %d must be at least 2", c.laneCap)
	}
	if c.ringSize < 1 {
		return fmt.Errorf("wfqd: -ring %d is a zero-capacity submission ring; it must be at least 1", c.ringSize)
	}
	if c.shards < 0 || c.shards > 64 {
		return fmt.Errorf("wfqd: -shards %d must be in 0..64 (0 = engine default)", c.shards)
	}
	if c.batch < 1 {
		return fmt.Errorf("wfqd: -batch %d must be at least 1", c.batch)
	}
	if c.flows < 1 {
		return fmt.Errorf("wfqd: -flows %d must be positive", c.flows)
	}
	if c.capBps <= 0 {
		return fmt.Errorf("wfqd: -capacity-bps %g must be positive", c.capBps)
	}
	switch c.discipline {
	case "scfq", "stfq", "vclock", "edf", "srpt", "lstf":
	default:
		return fmt.Errorf("wfqd: unknown discipline %q (scfq|stfq|vclock|edf|srpt|lstf)", c.discipline)
	}
	if c.synthetic < 0 {
		return fmt.Errorf("wfqd: -synthetic %d must be non-negative", c.synthetic)
	}
	if c.rate < 0 {
		return fmt.Errorf("wfqd: -rate %g must be non-negative", c.rate)
	}
	return nil
}

func parsePolicy(s string) (engine.Policy, error) {
	switch s {
	case "block":
		return engine.PolicyBlock, nil
	case "drop-tail":
		return engine.PolicyDropTail, nil
	case "red":
		return engine.PolicyRED, nil
	default:
		return 0, fmt.Errorf("wfqd: unknown policy %q (block|drop-tail|red)", s)
	}
}

func parseProfile(s string) (traffic.TagProfile, error) {
	switch s {
	case "bell":
		return traffic.ProfileBell, nil
	case "left":
		return traffic.ProfileLeftWeighted, nil
	case "uniform":
		return traffic.ProfileUniform, nil
	default:
		return 0, fmt.Errorf("wfqd: unknown profile %q (bell|left|uniform)", s)
	}
}

// server owns the engine, the flow control plane, and the HTTP surface.
// It is constructed separately from main so tests can drive it through
// httptest without sockets or signals.
type server struct {
	cfg     config
	eng     *engine.Engine
	ctrl    *admission.Controller
	prog    rank.Program
	gran    float64
	start   time.Time
	served  atomic.Uint64
	ingests atomic.Uint64
	badLine atomic.Uint64
	healthy atomic.Bool
	// ingested flips on the first successfully admitted packet:
	// readiness requires proof the whole submit path works end to end.
	ingested atomic.Bool

	mu       sync.Mutex
	progLock sync.Mutex
	consumer sync.WaitGroup

	// Ingest-socket lifecycle: ingestWG joins the accept loop and every
	// connection goroutine; conns tracks live connections so shutdown
	// can sever them instead of waiting out idle clients.
	ingestWG sync.WaitGroup
	connMu   sync.Mutex
	conns    map[net.Conn]struct{}
}

// trackConn registers a live ingest connection for shutdown teardown.
func (s *server) trackConn(conn net.Conn) {
	s.connMu.Lock()
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[conn] = struct{}{}
	s.connMu.Unlock()
}

// untrackConn forgets a finished ingest connection.
func (s *server) untrackConn(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
}

// closeConns severs every live ingest connection, unblocking their
// serve goroutines so ingestWG.Wait can return.
func (s *server) closeConns() {
	s.connMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
}

func newServer(cfg config) (*server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pol, err := parsePolicy(cfg.policy)
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(engine.Config{
		Lanes:         cfg.lanes,
		LaneCapacity:  cfg.laneCap,
		RingSize:      cfg.ringSize,
		Shards:        cfg.shards,
		BatchSize:     cfg.batch,
		Policy:        pol,
		RecoverFaults: true,
		Label:         cfg.discipline,
	})
	if err != nil {
		return nil, err
	}
	// Admission control plane: each flow declares an equal share of the
	// modelled link; the granted WFQ weights drive the rank program.
	ctrl, err := admission.NewController(cfg.capBps, 0.95, 1500)
	if err != nil {
		return nil, err
	}
	share := cfg.capBps * 0.9 / float64(cfg.flows)
	for f := 0; f < cfg.flows; f++ {
		_, err := ctrl.Admit(admission.Request{
			Name:   fmt.Sprintf("flow-%d", f),
			Bucket: police.Bucket{RateBps: share, BurstBits: 12000},
		})
		if err != nil {
			return nil, fmt.Errorf("wfqd: admitting flow %d: %w", f, err)
		}
	}
	prog, err := newProgram(cfg.discipline, ctrl.Weights(), cfg.capBps)
	if err != nil {
		return nil, err
	}
	s := &server{
		cfg:  cfg,
		eng:  eng,
		ctrl: ctrl,
		prog: prog,
		// Tag granularity: one minimum-size packet at the full link rate
		// maps to one tag step, so a flow at its granted share advances
		// a few steps per packet and the tag space wraps gracefully
		// through the eager-mode lanes.
		gran:  (64 * 8) / cfg.capBps,
		start: time.Now(),
	}
	return s, nil
}

// run starts the engine and the discard consumer.
func (s *server) run() error {
	if err := s.eng.Start(); err != nil {
		return err
	}
	s.healthy.Store(true)
	s.consumer.Add(1)
	go func() {
		defer s.consumer.Done()
		for range s.eng.Served() {
			s.served.Add(1)
		}
	}()
	return nil
}

// shutdown severs ingest connections, drains the engine, and waits for
// the consumer and every ingest goroutine. The caller closes the ingest
// listener first, so the accept loop is already on its way out.
func (s *server) shutdown() error {
	s.healthy.Store(false)
	s.closeConns()
	err := s.eng.Stop()
	s.consumer.Wait()
	s.ingestWG.Wait()
	return err
}

// newProgram builds the rank program selected by -discipline over the
// admission-granted weight vector. EDF and LSTF get a uniform 10ms
// per-flow deadline / slack budget: the daemon has no per-flow SLA
// plane, so every flow carries the same latency objective.
func newProgram(discipline string, weights []float64, capBps float64) (rank.Program, error) {
	uniform := func(v float64) []float64 {
		b := make([]float64, len(weights))
		for i := range b {
			b[i] = v
		}
		return b
	}
	switch discipline {
	case "scfq":
		return rank.NewSCFQ(weights, capBps)
	case "stfq":
		return rank.NewSTFQ(weights, capBps)
	case "vclock":
		return rank.NewVirtualClock(weights, capBps)
	case "edf":
		return rank.NewEDF(uniform(0.010))
	case "srpt":
		return rank.NewSRPT(len(weights))
	case "lstf":
		return rank.NewLSTF(uniform(0.010), capBps)
	default:
		return nil, fmt.Errorf("wfqd: unknown discipline %q (scfq|stfq|vclock|edf|srpt|lstf)", discipline)
	}
}

// submitPacket ranks one (flow, sizeBytes) arrival with the configured
// rank program, quantizes the rank into the sorter's tag space, and
// submits it. The program is self-clocked: OnServe fires at submission,
// matching the pre-seam SCFQ Tag-then-Serve behaviour — the engine's
// merge stage, not the program, orders actual departures. Safe for
// concurrent ingest paths.
func (s *server) submitPacket(flow, sizeBytes int) (bool, error) {
	if flow < 0 || flow >= s.cfg.flows {
		return false, fmt.Errorf("wfqd: flow %d outside [0,%d)", flow, s.cfg.flows)
	}
	if sizeBytes <= 0 {
		return false, fmt.Errorf("wfqd: size %d must be positive", sizeBytes)
	}
	now := time.Since(s.start).Seconds()
	p := packet.Packet{Flow: flow, Size: sizeBytes, Arrival: now}
	s.progLock.Lock()
	r, err := s.prog.Rank(p, now)
	if err == nil {
		s.prog.OnServe(p, r, now)
	}
	s.progLock.Unlock()
	if err != nil {
		return false, err
	}
	tag := int(r.Rank/s.gran+0.5) % s.eng.TagRange()
	if tag < 0 {
		// LSTF slack can go negative for an already-late packet: wrap
		// into the tag space the same way the modulo wraps large ranks.
		tag += s.eng.TagRange()
	}
	return s.markIngest(s.eng.Submit(tag, flow))
}

// submitTag submits a pre-computed tag (synthetic load path).
func (s *server) submitTag(tag, payload int) (bool, error) {
	return s.markIngest(s.eng.Submit(tag, payload))
}

// markIngest records the first successfully admitted packet (the
// readiness gate) and passes the Submit result through.
func (s *server) markIngest(ok bool, err error) (bool, error) {
	if ok && err == nil {
		s.ingested.Store(true)
	}
	return ok, err
}

// runSynthetic generates n packets with the configured Fig. 6 profile.
func (s *server) runSynthetic(n int) error {
	prof, err := parseProfile(s.cfg.profile)
	if err != nil {
		return err
	}
	gen, err := traffic.NewTagGen(prof, s.cfg.seed)
	if err != nil {
		return err
	}
	var tick *time.Ticker
	if s.cfg.rate > 0 {
		tick = time.NewTicker(time.Duration(float64(time.Second) / s.cfg.rate))
		defer tick.Stop()
	}
	for i := 0; i < n; i++ {
		if tick != nil {
			<-tick.C
		}
		if _, err := s.submitTag(gen.Sample(0, s.eng.TagRange()-1), i); err != nil {
			return err
		}
	}
	return nil
}

// runTrace replays an arrival trace through the WFQ tagger.
func (s *server) runTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	pkts, err := trace.ReadArrivals(f)
	if err != nil {
		return err
	}
	for _, p := range pkts {
		flow := p.Flow % s.cfg.flows
		if _, err := s.submitPacket(flow, p.Size); err != nil {
			return fmt.Errorf("wfqd: packet %d: %w", p.ID, err)
		}
	}
	return nil
}

// serveIngest accepts "flow size_bytes" lines from one connection.
func (s *server) serveIngest(conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var flow, size int
		if _, err := fmt.Sscanf(line, "%d %d", &flow, &size); err != nil {
			s.badLine.Add(1)
			fmt.Fprintf(conn, "ERR %v\n", err)
			continue
		}
		ok, err := s.submitPacket(flow, size)
		switch {
		case err != nil:
			s.badLine.Add(1)
			fmt.Fprintf(conn, "ERR %v\n", err)
		case !ok:
			fmt.Fprintln(conn, "DROP")
		default:
			s.ingests.Add(1)
			fmt.Fprintln(conn, "OK")
		}
	}
}

// listenIngest opens the -ingest socket ("tcp:addr" or "unix:/path").
func (s *server) listenIngest(spec string) (net.Listener, error) {
	network, addr, ok := strings.Cut(spec, ":")
	if !ok || (network != "tcp" && network != "unix") {
		return nil, fmt.Errorf("wfqd: ingest %q must be tcp:host:port or unix:/path", spec)
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	s.ingestWG.Add(1)
	go func() {
		defer s.ingestWG.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.trackConn(conn)
			s.ingestWG.Add(1)
			go s.handleIngestConn(conn)
		}
	}()
	return ln, nil
}

// handleIngestConn runs one ingest connection to completion and joins
// it back into the ingest WaitGroup, so shutdown leaves no connection
// goroutine behind.
func (s *server) handleIngestConn(conn net.Conn) {
	defer s.ingestWG.Done()
	defer s.untrackConn(conn)
	s.serveIngest(conn)
}

// mux builds the HTTP observability surface.
func (s *server) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("GET /healthz", s.handleHealthz)
	m.HandleFunc("GET /readyz", s.handleReadyz)
	m.HandleFunc("GET /metrics", s.handleMetrics)
	m.HandleFunc("GET /stats.json", s.handleStatsJSON)
	return m
}

// handleHealthz is the liveness probe: 200 while the datapath process
// is up (including degraded or draining states — a degraded daemon must
// not be restarted, it is busy recovering), 503 only once serving has
// actually stopped.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if !s.healthy.Load() {
		http.Error(w, "stopping", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the readiness probe: 503 while draining, while the
// engine is anything but fully healthy (quarantined lane, rebuilding,
// stalled datapath), or before the first successfully admitted packet
// proves the submit path end to end. Load balancers steer new work away
// on 503; liveness (/healthz) stays green the whole time.
func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	reason := ""
	switch {
	case !s.healthy.Load():
		reason = "draining"
	case !s.eng.Ready():
		reason = "engine " + s.eng.StatsSnapshot().Health
	case !s.ingested.Load():
		reason = "no successful ingest yet"
	}
	if reason != "" {
		http.Error(w, reason, http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}

type statsPayload struct {
	Schema    string       `json:"schema"`
	Ready     bool         `json:"ready"`
	Health    string       `json:"health"`
	UptimeS   float64      `json:"uptime_s"`
	Served    uint64       `json:"served"`
	Ingested  uint64       `json:"ingested_lines"`
	BadLines  uint64       `json:"bad_lines"`
	Flows     int          `json:"flows"`
	WeightSum float64      `json:"weight_sum"`
	Engine    engine.Stats `json:"engine"`
}

func (s *server) statsPayload() statsPayload {
	weights := s.ctrl.Weights()
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	// The weight vector carries one extra best-effort entry beyond the
	// admitted flows (admission.Controller.Weights).
	est := s.eng.StatsSnapshot()
	return statsPayload{
		Schema:    "wfqsort/wfqd-stats/v1",
		Ready:     s.healthy.Load() && est.Ready && s.ingested.Load(),
		Health:    est.Health,
		UptimeS:   time.Since(s.start).Seconds(),
		Served:    s.served.Load(),
		Ingested:  s.ingests.Load(),
		BadLines:  s.badLine.Load(),
		Flows:     s.cfg.flows,
		WeightSum: sum,
		Engine:    est,
	}
}

func (s *server) handleStatsJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.statsPayload()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleMetrics writes a Prometheus-style text exposition of the engine
// counters, lane-balance gauges, and per-lane memory-fabric pressure.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.eng.StatsSnapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	emit := func(name, help, typ string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, typ, name, v)
	}
	emit("wfqd_up", "1 while the engine datapath is running.", "gauge", boolGauge(s.healthy.Load()))
	emit("wfqd_ready", "1 while fully healthy and ready for new work (the /readyz view).", "gauge",
		boolGauge(s.healthy.Load() && st.Ready && s.ingested.Load()))
	emit("wfqd_uptime_seconds", "Wall-clock seconds since boot.", "gauge", time.Since(s.start).Seconds())
	fmt.Fprintf(&b, "# HELP wfqd_discipline Rank program driving the tagger (info metric).\n# TYPE wfqd_discipline gauge\nwfqd_discipline{name=%q} 1\n", st.Label)
	emit("wfqd_submitted_total", "Packets admitted into the submission rings.", "counter", float64(st.Submitted))
	emit("wfqd_inserted_total", "Packets inserted into the sorter.", "counter", float64(st.Inserted))
	emit("wfqd_extracted_total", "Packets served in tag order.", "counter", float64(st.Extracted))
	emit("wfqd_drops_ring_total", "Tail drops at full submission rings.", "counter", float64(st.DropsRing))
	emit("wfqd_drops_red_total", "Random-early-detection drops.", "counter", float64(st.DropsRED))
	emit("wfqd_fault_lost_total", "Packets lost to contained faults (accounted).", "counter", float64(st.FaultLost))
	emit("wfqd_recoveries_total", "Audit/Rebuild fault recoveries.", "counter", float64(st.Recoveries))
	emit("wfqd_remapped_total", "Packets routed off quarantined lanes.", "counter", float64(st.Remapped))
	emit("wfqd_evacuated_total", "Packets evacuated from lanes at quarantine time.", "counter", float64(st.Evacuated))
	emit("wfqd_drain_shed_total", "Packets shed by watchdog-aborted drains.", "counter", float64(st.DrainShed))
	emit("wfqd_watchdog_trips_total", "Stall and drain watchdog trips.", "counter", float64(st.WatchdogTrips))
	emit("wfqd_datapath_panics_total", "Contained datapath panics.", "counter", float64(st.DatapathPanics))
	emit("wfqd_quarantines_total", "Lane quarantine transitions.", "counter", float64(st.Supervision.Quarantines))
	emit("wfqd_requarantines_total", "Failed reinstate probes.", "counter", float64(st.Supervision.Requarantines))
	emit("wfqd_reinstates_total", "Lanes returned to service after quarantine.", "counter", float64(st.Supervision.Reinstates))
	emit("wfqd_rebuild_retries_total", "Lane rebuild retry attempts beyond the first.", "counter", float64(st.Supervision.RebuildRetries))
	emit("wfqd_quarantined_lanes", "Lanes currently out of service.", "gauge", float64(st.Supervision.QuarantinedLanes))
	for _, es := range []string{"healthy", "degraded", "stalled", "draining", "failed", "stopped"} {
		fmt.Fprintf(&b, "wfqd_engine_state{state=%q} %g\n", es, boolGauge(st.Health == es))
	}
	for i, ls := range st.Supervision.LaneStates {
		fmt.Fprintf(&b, "wfqd_lane_state{lane=\"%d\",state=%q} 1\n", i, ls)
	}
	emit("wfqd_batches_total", "Lane ingest batches (ring drains that inserted at least one packet).", "counter", float64(st.Batches))
	emit("wfqd_batched_ops_total", "Inserts carried by batches.", "counter", float64(st.BatchedOps))
	emit("wfqd_inflight", "Packets in rings plus sorter.", "gauge", float64(st.InFlight))
	emit("wfqd_sorter_len", "Tags resident in the sorter.", "gauge", float64(st.SorterLen))
	emit("wfqd_latency_p99_seconds", "p99 enqueue-to-extract latency (sliding window).", "gauge", st.LatencyP99Ns/1e9)
	emit("wfqd_latency_mean_seconds", "Mean enqueue-to-extract latency (sliding window).", "gauge", st.LatencyMeanNs/1e9)
	emit("wfqd_lane_imbalance", "Max/mean lane insert imbalance.", "gauge", st.LaneLoad.Imbalance)
	emit("wfqd_model_speedup", "Modeled lane-parallel speedup (sum/max lane cycles).", "gauge", st.ModelSpeedup)
	emit("wfqd_model_mpps", "Modeled sorter throughput at the paper clock, Mpps.", "gauge", st.ModeledMpps)
	for i, l := range st.RingLens {
		fmt.Fprintf(&b, "wfqd_ring_len{lane=\"%d\"} %d\n", i, l)
	}
	for i, l := range st.LaneLens {
		fmt.Fprintf(&b, "wfqd_lane_len{lane=\"%d\"} %d\n", i, l)
	}
	// Per-lane fabric pressure: region utilization, stalls, conflicts.
	// Regions are emitted in a stable order for scrape diffing.
	for _, lane := range st.FabricLanes {
		rs := make([]int, len(lane.Regions))
		for i := range rs {
			rs[i] = i
		}
		sort.Slice(rs, func(a, b int) bool { return lane.Regions[rs[a]].Region < lane.Regions[rs[b]].Region })
		for _, ri := range rs {
			p := lane.Regions[ri]
			fmt.Fprintf(&b, "wfqd_fabric_accesses_total{lane=\"%d\",region=%q} %d\n", lane.Lane, p.Region, p.Accesses)
			fmt.Fprintf(&b, "wfqd_fabric_stall_cycles_total{lane=\"%d\",region=%q} %d\n", lane.Lane, p.Region, p.StallCycles)
			fmt.Fprintf(&b, "wfqd_fabric_conflicts_total{lane=\"%d\",region=%q} %d\n", lane.Lane, p.Region, p.Conflicts)
			fmt.Fprintf(&b, "wfqd_fabric_stall_frac{lane=\"%d\",region=%q} %g\n", lane.Lane, p.Region, p.StallFrac)
		}
	}
	io.WriteString(w, b.String())
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func run(args []string, stdout io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	s, err := newServer(cfg)
	if err != nil {
		return err
	}
	if err := s.run(); err != nil {
		return err
	}

	httpLn, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.mux()}
	go hs.Serve(httpLn)
	fmt.Fprintf(stdout, "wfqd: serving HTTP on %s (%d lanes, %s policy)\n",
		httpLn.Addr(), cfg.lanes, cfg.policy)

	var ingestLn net.Listener
	if cfg.ingest != "" {
		ingestLn, err = s.listenIngest(cfg.ingest)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wfqd: ingesting packets on %s\n", cfg.ingest)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	workDone := make(chan error, 1)
	go func() {
		var werr error
		if cfg.traceFile != "" {
			werr = s.runTrace(cfg.traceFile)
		}
		if werr == nil && cfg.synthetic > 0 {
			werr = s.runSynthetic(cfg.synthetic)
		}
		workDone <- werr
	}()

	finite := cfg.ingest == "" && !cfg.linger
	for {
		select {
		case <-sig:
			fmt.Fprintln(stdout, "wfqd: signal received, draining")
			goto drain
		case werr := <-workDone:
			if werr != nil {
				log.Printf("wfqd: workload: %v", werr)
			}
			if finite {
				goto drain
			}
			// Infinite mode: keep serving the socket / HTTP until a signal.
			workDone = nil
		}
	}
drain:
	if ingestLn != nil {
		ingestLn.Close()
	}
	err = s.shutdown()
	st := s.statsPayload()
	fmt.Fprintf(stdout, "wfqd: drained — submitted %d, served %d, ring drops %d, red drops %d, fault lost %d\n",
		st.Engine.Submitted, st.Served, st.Engine.DropsRing, st.Engine.DropsRED, st.Engine.FaultLost)
	hs.Close()
	return err
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}
