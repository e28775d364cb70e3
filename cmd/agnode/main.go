// Command agnode runs one live protocol node: the same multicast
// routing and anonymous-gossip engines the simulator drives, bound to
// a real UDP socket through the runtime/netrt runtime.
//
// A three-node loopback cluster (see examples/loopback3 for the
// in-process equivalent):
//
//	agnode -id 1 -listen 127.0.0.1:7001 -peer 2=127.0.0.1:7002 -peer 3=127.0.0.1:7003 -api 127.0.0.1:8001 &
//	agnode -id 2 -listen 127.0.0.1:7002 -peer 1=127.0.0.1:7001 -peer 3=127.0.0.1:7003 -api 127.0.0.1:8002 &
//	agnode -id 3 -listen 127.0.0.1:7003 -peer 1=127.0.0.1:7001 -peer 2=127.0.0.1:7002 -api 127.0.0.1:8003 &
//	curl -X POST http://127.0.0.1:8001/publish
//	curl http://127.0.0.1:8002/stats
//	curl -N http://127.0.0.1:8003/subscribe   # SSE delivery stream
//
// -stack accepts any stack name or alias ("flood", "maodv",
// "odmrp+gossip", "gossip", ...). Every node of a cluster must run the
// same stack. Peer tables are static: each -peer names one remote node
// and duplicate IDs — in the peer table or joining the transport — are
// rejected at startup, exactly as the simulated radio rejects duplicate
// attachments.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"anongossip/internal/metrics"
	"anongossip/internal/node"
	"anongossip/internal/pkt"
	"anongossip/internal/runtime/netrt"
	"anongossip/internal/stack"
	"anongossip/internal/stats"
)

// defaultGroup matches the simulator's single experiment group.
const defaultGroup = 0xE0000001

// peerFlag is one "-peer id=host:port" argument.
type peerFlag struct {
	id   pkt.NodeID
	addr string
}

// daemonConfig is everything a daemon needs besides its transport.
type daemonConfig struct {
	ID        pkt.NodeID
	Stack     stack.Spec
	Group     pkt.GroupID
	Seed      int64
	TimeScale float64
	// InboxSize bounds the frame queue between the transport and the
	// event loop (0 = netrt.DefaultInboxSize); /stats reports the
	// effective capacity alongside the drop counter.
	InboxSize int
}

// delivery is one application-level data arrival, as reported on
// /subscribe and counted into /stats.
type delivery struct {
	Group     pkt.GroupID `json:"group"`
	Origin    pkt.NodeID  `json:"origin"`
	Seq       uint32      `json:"seq"`
	Recovered bool        `json:"recovered"`
}

// daemon is one running agnode: a live protocol node plus the client
// API state. It is transport-agnostic so tests boot whole clusters on
// the in-process channel transport.
type daemon struct {
	cfg daemonConfig
	pn  *netrt.ProtocolNode

	mu sync.Mutex
	// arrivals is a ring of wall-clock delivery instants: delivery k
	// (0-based) sits at k % arrivalWindow until k+arrivalWindow lands.
	arrivals [arrivalWindow]time.Time
	count    uint64
	subs     map[chan delivery]struct{}
}

// arrivalWindow bounds the delivery instants a daemon keeps, and so the
// window /stats' gap_ms summarises and the work each request does.
const arrivalWindow = 1024

// newDaemon assembles the stack on tr and joins the group. The node is
// live when newDaemon returns.
func newDaemon(cfg daemonConfig, tr netrt.Transport) (*daemon, error) {
	if cfg.Group == 0 {
		cfg.Group = defaultGroup
	}
	pn, err := netrt.NewProtocolNode(netrt.ProtocolConfig{
		Node:  netrt.NodeConfig{ID: cfg.ID, TimeScale: cfg.TimeScale, InboxSize: cfg.InboxSize},
		Stack: cfg.Stack,
		Seed:  cfg.Seed,
	}, tr)
	if err != nil {
		return nil, err
	}
	d := &daemon{cfg: cfg, pn: pn, subs: make(map[chan delivery]struct{})}
	// Registered before Start: deliveries run on the node's event loop
	// and must never block it, so subscribers get non-blocking sends.
	pn.OnDeliver(func(g pkt.GroupID, data *pkt.Data, recovered bool) {
		ev := delivery{Group: g, Origin: data.Origin, Seq: data.Seq, Recovered: recovered}
		d.mu.Lock()
		d.arrivals[d.count%arrivalWindow] = time.Now()
		d.count++
		for ch := range d.subs {
			select {
			case ch <- ev:
			default:
			}
		}
		d.mu.Unlock()
	})
	pn.Start()
	if err := pn.Join(cfg.Group); err != nil {
		pn.Close()
		return nil, err
	}
	return d, nil
}

// Close stops the node.
func (d *daemon) Close() error { return d.pn.Close() }

// subscribe registers a delivery listener; the returned cancel func
// removes it.
func (d *daemon) subscribe() (<-chan delivery, func()) {
	ch := make(chan delivery, 64)
	d.mu.Lock()
	d.subs[ch] = struct{}{}
	d.mu.Unlock()
	return ch, func() {
		d.mu.Lock()
		delete(d.subs, ch)
		d.mu.Unlock()
	}
}

// statsReport is the /stats response document.
type statsReport struct {
	ID        pkt.NodeID  `json:"id"`
	Stack     string      `json:"stack"`
	Group     pkt.GroupID `json:"group"`
	Delivered uint64      `json:"delivered"`
	// Subscribers counts the active /subscribe delivery streams.
	Subscribers int `json:"subscribers"`
	// GapMS summarises wall-clock inter-arrival gaps of the most recent
	// delivered packets (at most arrivalWindow of them) in milliseconds
	// (the live analogue of the simulator's delivery distributions, via
	// internal/stats).
	GapMS    stats.Summary       `json:"gap_ms"`
	Node     node.Stats          `json:"node"`
	Recovery stack.RecoveryStats `json:"recovery"`
	Link     linkStats           `json:"link"`
}

// linkStats is the JSON shape of the runtime's atomic frame counters.
type linkStats struct {
	FramesIn   uint64 `json:"frames_in"`
	FramesOut  uint64 `json:"frames_out"`
	BytesIn    uint64 `json:"bytes_in"`
	BytesOut   uint64 `json:"bytes_out"`
	Malformed  uint64 `json:"malformed"`
	Filtered   uint64 `json:"filtered"`
	SendErrors uint64 `json:"send_errors"`
	InboxDrops uint64 `json:"inbox_drops"`
	// InboxCapacity is the configured frame-queue bound the drops are
	// measured against (-inbox flag; netrt.DefaultInboxSize when unset).
	InboxCapacity int `json:"inbox_capacity"`
}

// report gathers the full stats document.
func (d *daemon) report() (*statsReport, error) {
	ns, err := d.pn.NodeStats()
	if err != nil {
		return nil, err
	}
	rs, err := d.pn.RecoveryStats()
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	count, subscribers := d.count, len(d.subs)
	retained := min(count, arrivalWindow)
	gaps := make([]float64, 0, retained)
	for k := count - retained + 1; k < count; k++ {
		gap := d.arrivals[k%arrivalWindow].Sub(d.arrivals[(k-1)%arrivalWindow])
		gaps = append(gaps, float64(gap)/float64(time.Millisecond))
	}
	d.mu.Unlock()
	ls := d.pn.Runtime().Stats()
	return &statsReport{
		ID:          d.cfg.ID,
		Stack:       d.pn.Spec().String(),
		Group:       d.cfg.Group,
		Delivered:   count,
		Subscribers: subscribers,
		GapMS:       stats.Summarize(gaps),
		Node:        ns,
		Recovery:    rs,
		Link: linkStats{
			FramesIn:      ls.FramesIn.Load(),
			FramesOut:     ls.FramesOut.Load(),
			BytesIn:       ls.BytesIn.Load(),
			BytesOut:      ls.BytesOut.Load(),
			Malformed:     ls.Malformed.Load(),
			Filtered:      ls.Filtered.Load(),
			SendErrors:    ls.SendErrors.Load(),
			InboxDrops:    ls.InboxDrops.Load(),
			InboxCapacity: d.pn.Runtime().InboxCap(),
		},
	}, nil
}

// reading is one sample of a /metrics family: its label value and number.
type reading struct {
	label string
	value float64
}

// family builds one /metrics family whose samples carry the one label
// named, or a single unlabelled sample when label is empty.
func family(name, help string, kind metrics.Kind, label string, readings ...reading) metrics.Family {
	f := metrics.Family{Name: name, Help: help, Kind: kind}
	for _, r := range readings {
		s := metrics.Sample{Value: r.value}
		if label != "" {
			s.Labels = []metrics.Label{{Name: label, Value: r.label}}
		}
		f.Samples = append(f.Samples, s)
	}
	return f
}

// metricFamilies is the /metrics view of one stats report, in exposition
// order: /stats and /metrics enumerate the same counters, and all of a
// scrape's numbers are of the same instant.
func metricFamilies(r *statsReport) []metrics.Family {
	const counter, gauge = metrics.KindCounter, metrics.KindGauge
	u := func(v uint64) float64 { return float64(v) }
	return []metrics.Family{
		family("agnode_delivered_total", "Unique data packets delivered to the application (routing + recovery).",
			counter, "", reading{"", u(r.Delivered)}),
		family("agnode_subscribers", "Active /subscribe delivery streams.",
			gauge, "", reading{"", float64(r.Subscribers)}),
		family("agnode_link_frames_total", "Link frames by direction.",
			counter, "direction", reading{"in", u(r.Link.FramesIn)}, reading{"out", u(r.Link.FramesOut)}),
		family("agnode_link_bytes_total", "Link bytes by direction.",
			counter, "direction", reading{"in", u(r.Link.BytesIn)}, reading{"out", u(r.Link.BytesOut)}),
		family("agnode_link_errors_total", "Dropped or failed frames by cause.",
			counter, "kind", reading{"malformed", u(r.Link.Malformed)}, reading{"filtered", u(r.Link.Filtered)},
			reading{"send", u(r.Link.SendErrors)}, reading{"inbox_drop", u(r.Link.InboxDrops)}),
		family("agnode_inbox_capacity", "Configured frame-queue bound between socket and event loop.",
			gauge, "", reading{"", float64(r.Link.InboxCapacity)}),
		family("agnode_node_packets_total", "Network-layer packet counts by operation.",
			counter, "op", reading{"sent", u(r.Node.Sent)}, reading{"forwarded", u(r.Node.Forwarded)},
			reading{"delivered", u(r.Node.Delivered)}, reading{"ttl_drop", u(r.Node.TTLDrops)},
			reading{"no_handler", u(r.Node.NoHandler)}, reading{"mac_reject", u(r.Node.MACRejects)}),
		family("agnode_node_bytes_total", "Network-layer transmitted bytes by class.",
			counter, "class", reading{"control", u(r.Node.ControlBytes)}, reading{"payload", u(r.Node.PayloadBytes)}),
		family("agnode_recovery_packets_total", "Recovery-layer outcomes (gossip stacks).",
			counter, "op", reading{"delivered", u(r.Recovery.Delivered)}, reading{"recovered", u(r.Recovery.Recovered)},
			reading{"reply_new", u(r.Recovery.ReplyNew)}, reading{"reply_dup", u(r.Recovery.ReplyDup)}),
		family("agnode_recovery_goodput_percent", "Percentage of useful recovery-reply traffic (paper §5.5).",
			gauge, "", reading{"", r.Recovery.Goodput}),
	}
}

// handler builds the client API: POST /publish, GET /subscribe (SSE),
// GET /stats, GET /metrics (Prometheus text format), and the pprof
// endpoints under /debug/pprof/.
func (d *daemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		rep, err := d.report()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := metrics.WritePrometheus(w, metricFamilies(rep)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	mux.HandleFunc("POST /publish", func(w http.ResponseWriter, r *http.Request) {
		key, err := d.pn.Publish(d.cfg.Group)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"origin": key.Origin, "seq": key.Seq})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		rep, err := d.report()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rep)
	})
	mux.HandleFunc("GET /subscribe", func(w http.ResponseWriter, r *http.Request) {
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		ch, cancel := d.subscribe()
		defer cancel()
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.WriteHeader(http.StatusOK)
		fl.Flush()
		for {
			select {
			case ev := <-ch:
				payload, err := json.Marshal(ev)
				if err != nil {
					return
				}
				fmt.Fprintf(w, "data: %s\n\n", payload)
				fl.Flush()
			case <-r.Context().Done():
				return
			}
		}
	})
	return mux
}

// parsePeer splits one -peer value.
func parsePeer(v string) (peerFlag, error) {
	idStr, addr, ok := strings.Cut(v, "=")
	if !ok {
		return peerFlag{}, fmt.Errorf("want id=host:port, got %q", v)
	}
	var id pkt.NodeID
	n, err := strconv.ParseUint(idStr, 10, 64)
	if err == nil {
		id, err = nodeID(n)
	}
	if err != nil {
		return peerFlag{}, fmt.Errorf("bad peer id %q: %v", idStr, err)
	}
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return peerFlag{}, fmt.Errorf("bad peer address %q: %v", addr, err)
	}
	return peerFlag{id: id, addr: addr}, nil
}

// nodeID narrows a flag value to a node address: 32 bits, not zero, not
// the broadcast address.
func nodeID(v uint64) (pkt.NodeID, error) {
	if v == 0 || v >= uint64(pkt.Broadcast) {
		return 0, fmt.Errorf("node id %d outside 1..%d", v, uint64(pkt.Broadcast)-1)
	}
	return pkt.NodeID(v), nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("agnode", flag.ContinueOnError)
	var (
		id        = fs.Uint64("id", 0, "this node's id (required, unique across the cluster)")
		stackName = fs.String("stack", "flood", "protocol stack: "+strings.Join(stack.Names(), ", "))
		group     = fs.Uint64("group", defaultGroup, "multicast group address")
		listen    = fs.String("listen", "127.0.0.1:0", "UDP address for protocol frames")
		api       = fs.String("api", "127.0.0.1:0", "HTTP address for the client API (publish/subscribe/stats)")
		seed      = fs.Int64("seed", time.Now().UnixNano(), "rng seed for protocol choices")
		timeScale = fs.Float64("timescale", 1, "protocol seconds per wall second (>1 compresses timers; tests only)")
		inbox     = fs.Int("inbox", 0, "frame-queue capacity between socket and event loop (0 = netrt default); overruns drop frames, counted in /stats inbox_drops")
	)
	var peers []peerFlag
	fs.Func("peer", "peer as id=host:port (repeatable)", func(v string) error {
		p, err := parsePeer(v)
		if err != nil {
			return err
		}
		peers = append(peers, p)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	self, err := nodeID(*id)
	if err != nil {
		return fmt.Errorf("agnode: -id (required): %w", err)
	}
	if *group == 0 || *group > math.MaxUint32 {
		return fmt.Errorf("agnode: -group %d outside 1..%d", *group, uint32(math.MaxUint32))
	}
	if !(*timeScale > 0) || math.IsInf(*timeScale, 1) {
		return fmt.Errorf("agnode: -timescale %v is not positive and finite", *timeScale)
	}
	if *inbox < 0 {
		return fmt.Errorf("agnode: -inbox %d is negative (0 selects the default)", *inbox)
	}
	spec, err := stack.ByName(*stackName)
	if err != nil {
		return fmt.Errorf("agnode: invalid -stack: %w", err)
	}

	tr, err := netrt.NewUDP(*listen)
	if err != nil {
		return fmt.Errorf("agnode: %w", err)
	}
	for _, p := range peers {
		if err := tr.AddPeer(p.id, p.addr); err != nil {
			return fmt.Errorf("agnode: %w", err)
		}
	}
	d, err := newDaemon(daemonConfig{
		ID:        self,
		Stack:     spec,
		Group:     pkt.GroupID(*group),
		Seed:      *seed,
		TimeScale: *timeScale,
		InboxSize: *inbox,
	}, tr)
	if err != nil {
		return fmt.Errorf("agnode: %w", err)
	}
	defer d.Close()

	ln, err := net.Listen("tcp", *api)
	if err != nil {
		return fmt.Errorf("agnode: api listen: %w", err)
	}
	fmt.Printf("agnode %d: stack %v, udp %s, api http://%s\n",
		*id, spec, tr.Addr(), ln.Addr())

	srv := &http.Server{Handler: d.handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("agnode %d: %v, shutting down\n", *id, s)
		srv.Close()
		return nil
	case err := <-errc:
		return err
	}
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
