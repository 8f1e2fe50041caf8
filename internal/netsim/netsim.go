// Package netsim models the RDMA-capable interconnect of the paper's
// Cluster B: Mellanox InfiniBand EDR (100 Gbps) with two-sided RDMA SEND
// message transfers, as used by the RDMA-Memcached Get/Multi-Get protocol.
//
// The model is a per-endpoint serializing NIC plus a constant propagation
// delay:
//
//	delivery = send-side overhead + size/bandwidth (serialized per NIC)
//	           + propagation + receive-side overhead
//
// This is the standard LogGP-style decomposition; the constants default to
// EDR-class values (100 Gbps, ~1 µs end-to-end for small messages), which is
// what RDMA-Memcached reports for two-sided SENDs on EDR hardware.
//
// Messages between the same endpoint pair are delivered in FIFO order, which
// matches reliable-connected (RC) queue-pair semantics.
package netsim

import (
	"fmt"

	"simdhtbench/internal/des"
	"simdhtbench/internal/fault"
	"simdhtbench/internal/obs"
)

// Config sets the fabric constants.
type Config struct {
	BandwidthGbps float64 // link bandwidth in Gbit/s
	PropDelay     float64 // one-way propagation + switching, seconds
	SendOverhead  float64 // CPU/NIC overhead per message at the sender, seconds
	RecvOverhead  float64 // CPU/NIC overhead per message at the receiver, seconds

	// MaxMessageBytes segments larger payloads into multiple SENDs, as the
	// RDMA-Memcached Get protocol does ("the request/response phases batch
	// the key/value data into multiple small message transfers"). Each
	// segment pays the per-message overheads; delivery fires when the last
	// segment arrives. 0 disables segmentation.
	MaxMessageBytes int
}

// SmallMessageLatency returns the end-to-end latency of a minimal message
// under this configuration: send overhead + propagation + receive overhead.
// It is a lower bound on every delivery the fabric can produce (transfer
// time, NIC serialization, segmentation and delay spikes only add to it), so
// it is the conservative lookahead for partitioned simulation: a message sent
// at virtual time t can never arrive before t + SmallMessageLatency().
func (c Config) SmallMessageLatency() float64 {
	return c.SendOverhead + c.PropDelay + c.RecvOverhead
}

// EDR returns constants for InfiniBand EDR (100 Gbps) with µs-class
// small-message latency.
func EDR() Config {
	// EDR-class RDMA NICs (ConnectX-4/5) sustain >100 M msgs/s; the
	// per-message CPU/NIC overhead of a two-sided SEND is ~100 ns, and
	// one-way small-message latency lands near 0.7 µs.
	return Config{
		BandwidthGbps:   100,
		PropDelay:       500e-9,
		SendOverhead:    100e-9,
		RecvOverhead:    100e-9,
		MaxMessageBytes: 8192, // RDMA-Memcached-style small-message chunks
	}
}

// Fabric connects endpoints over a shared configuration. Every send
// executes on its source endpoint's partition slot — the slot's sim,
// counters, fault stream and probes. An unpartitioned fabric is a single
// slot on the simulator it was created with; Partition gives each partition
// of an engine its own slot and routes cross-partition deliveries through
// the engine's outboxes.
type Fabric struct {
	cfg Config

	endpoints map[string]*Endpoint

	pd    *des.Partitioned // nil while unpartitioned
	slots []partitionSlot
}

// partitionSlot is the execution context of one partition. Each slot is
// only ever touched by events running on its partition, so no field needs
// synchronization.
type partitionSlot struct {
	sim        *des.Sim
	sent       uint64
	bytesSent  uint64
	dropped    uint64
	duplicated uint64
	delayed    uint64
	faults     *fault.Plan
	probe      obs.NetProbe
	faultProbe obs.FaultProbe
}

// New creates a fabric on the given simulator.
func New(sim *des.Sim, cfg Config) *Fabric {
	if cfg.BandwidthGbps <= 0 {
		panic("netsim: bandwidth must be positive")
	}
	return &Fabric{cfg: cfg, endpoints: make(map[string]*Endpoint), slots: []partitionSlot{{sim: sim}}}
}

// Endpoint returns (creating on first use) the named endpoint. A new
// endpoint lands on partition 0; use EndpointAt to place it on a
// partitioned fabric. Creation mutates the fabric's endpoint map, so
// endpoints must be created during single-threaded setup, never from a
// running partition event (lookups of existing endpoints during setup are
// fine — the map is read-only once the engine runs, because every Send
// resolves endpoints the caller already holds).
func (f *Fabric) Endpoint(name string) *Endpoint {
	if ep, ok := f.endpoints[name]; ok {
		return ep
	}
	ep := &Endpoint{fabric: f, name: name}
	f.endpoints[name] = ep
	return ep
}

// Partition switches the fabric into partitioned mode on the given engine:
// each partition gets its own counter/fault/probe slot (replacing the
// unpartitioned slot and anything armed on it), and deliveries whose
// destination endpoint lives on a different partition route through the
// engine's canonical cross-partition merge. The engine's lookahead must not
// exceed cfg.SmallMessageLatency(), or cross-partition arrivals could land
// inside the current window (des.Partitioned.Post panics on that).
func (f *Fabric) Partition(pd *des.Partitioned) {
	if pd.Lookahead() > f.cfg.SmallMessageLatency() {
		panic(fmt.Sprintf("netsim: engine lookahead %g exceeds small-message latency %g", pd.Lookahead(), f.cfg.SmallMessageLatency()))
	}
	f.pd = pd
	f.slots = make([]partitionSlot, pd.Parts())
	for i := range f.slots {
		f.slots[i].sim = pd.Sim(i)
	}
}

// PartitionedEngine returns the engine installed by Partition, or nil on
// an unpartitioned fabric.
func (f *Fabric) PartitionedEngine() *des.Partitioned { return f.pd }

// EndpointAt returns (creating on first use) the named endpoint placed on
// the given partition. An endpoint's Send must only be invoked by events
// running on its own partition — the slot state it touches is unsynchronized
// by design. Re-requesting an existing endpoint with a different partition
// panics: an endpoint's partition is part of the decomposition.
func (f *Fabric) EndpointAt(name string, part int) *Endpoint {
	if f.pd == nil {
		panic("netsim: EndpointAt before Partition")
	}
	if part < 0 || part >= len(f.slots) {
		panic(fmt.Sprintf("netsim: endpoint partition %d out of range [0,%d)", part, len(f.slots)))
	}
	if ep, ok := f.endpoints[name]; ok {
		if ep.part != part {
			panic(fmt.Sprintf("netsim: endpoint %q already on partition %d, requested %d", name, ep.part, part))
		}
		return ep
	}
	ep := &Endpoint{fabric: f, name: name, part: part}
	f.endpoints[name] = ep
	return ep
}

// SetPartitionFaults arms fault injection for sends originating on the given
// partition (0 on an unpartitioned fabric): one independent decision per
// logical message, drawn in a fixed order (drop, then delay, then
// duplicate) from the plan's seeded RNG, so a faulty fabric replays
// exactly. probe, when non-nil, observes each injected fault. Each
// partition needs its own plan (its own seeded RNG stream) — fault draws
// happen concurrently across partitions, and per-partition streams are also
// what keeps the draw sequence independent of the host worker count.
func (f *Fabric) SetPartitionFaults(part int, plan *fault.Plan, probe obs.FaultProbe) {
	f.slots[part].faults = plan
	f.slots[part].faultProbe = probe
}

// SetPartitionProbe observes sends originating on the given partition (0 on
// an unpartitioned fabric). Each partition needs its own probe instance:
// obs.NetProbe keeps per-hop state that must stay single-writer.
func (f *Fabric) SetPartitionProbe(part int, probe obs.NetProbe) {
	f.slots[part].probe = probe
}

// MessagesSent returns the total messages injected: the per-partition
// counts summed in partition order (read after Run, when the barrier has
// published every slot).
func (f *Fabric) MessagesSent() uint64 {
	var n uint64
	for i := range f.slots {
		n += f.slots[i].sent
	}
	return n
}

// BytesSent returns the total payload bytes injected.
func (f *Fabric) BytesSent() uint64 {
	var n uint64
	for i := range f.slots {
		n += f.slots[i].bytesSent
	}
	return n
}

// MessagesDropped returns the logical messages the fault plans dropped.
func (f *Fabric) MessagesDropped() uint64 {
	var n uint64
	for i := range f.slots {
		n += f.slots[i].dropped
	}
	return n
}

// MessagesDuplicated returns the logical messages delivered twice.
func (f *Fabric) MessagesDuplicated() uint64 {
	var n uint64
	for i := range f.slots {
		n += f.slots[i].duplicated
	}
	return n
}

// MessagesDelayed returns the logical messages hit by a delay spike.
func (f *Fabric) MessagesDelayed() uint64 {
	var n uint64
	for i := range f.slots {
		n += f.slots[i].delayed
	}
	return n
}

// TransferTime returns size/bandwidth in seconds.
func (f *Fabric) TransferTime(bytes int) float64 {
	return float64(bytes) * 8 / (f.cfg.BandwidthGbps * 1e9)
}

// SmallMessageLatency returns the end-to-end latency of a minimal message —
// useful for sanity checks and capacity planning.
func (f *Fabric) SmallMessageLatency() float64 {
	return f.cfg.SendOverhead + f.cfg.PropDelay + f.cfg.RecvOverhead
}

// Endpoint is one NIC port. Its sender serializes outgoing messages
// (bandwidth sharing) while deliveries at the destination run through the
// destination's receive overhead.
type Endpoint struct {
	fabric   *Fabric
	name     string
	busyTill float64
	part     int // owning partition (EndpointAt; 0 otherwise)
}

// PartitionID returns the endpoint's partition (0 on an unpartitioned
// fabric).
func (e *Endpoint) PartitionID() int { return e.part }

// Name returns the endpoint name.
func (e *Endpoint) Name() string { return e.name }

// Send transfers a message of the given payload size to dst, invoking
// deliver at the destination when it arrives. Sends from one endpoint
// serialize through its NIC. Send runs on the source endpoint's partition:
// virtual time, NIC serialization, counters, fault draws and probes all come
// from the source slot, and the delivery is either scheduled locally
// (same-partition destination) or posted through the engine's canonical
// cross-partition merge. Every arrival is at least SmallMessageLatency()
// after the source's current time, which is exactly the engine's lookahead
// guarantee.
//
//lint:hotpath zero-alloc steady state pinned by AllocsPerRun tests
func (e *Endpoint) Send(dst *Endpoint, bytes int, deliver func()) {
	if bytes < 0 {
		panic(fmt.Sprintf("netsim: negative message size %d", bytes))
	}
	f := e.fabric
	s := &f.slots[e.part]
	sim := s.sim
	// Segment into protocol-sized messages; deliver fires with the last.
	segments := 1
	if f.cfg.MaxMessageBytes > 0 && bytes > f.cfg.MaxMessageBytes {
		segments = (bytes + f.cfg.MaxMessageBytes - 1) / f.cfg.MaxMessageBytes
	}
	remaining := bytes
	var arrival float64
	for seg := 0; seg < segments; seg++ {
		segBytes := remaining
		if f.cfg.MaxMessageBytes > 0 && segBytes > f.cfg.MaxMessageBytes {
			segBytes = f.cfg.MaxMessageBytes
		}
		remaining -= segBytes
		start := sim.Now()
		if e.busyTill > start {
			start = e.busyTill
		}
		txDone := start + f.cfg.SendOverhead + f.TransferTime(segBytes)
		e.busyTill = txDone
		arrival = txDone + f.cfg.PropDelay + f.cfg.RecvOverhead
		s.sent++
		s.bytesSent += uint64(segBytes)
	}
	if s.probe != nil {
		s.probe.MessageSent(e.name, dst.name, bytes, segments, sim.Now(), arrival)
	}
	// Fault injection: one decision per logical message, drawn in fixed
	// order (drop, delay, duplicate). A dropped message still occupied the
	// sender's NIC — it is lost in the fabric, not suppressed at the source.
	if s.faults != nil {
		if s.faults.DropMessage() {
			s.dropped++
			if s.faultProbe != nil {
				s.faultProbe.MessageDropped(e.name, dst.name, bytes, sim.Now())
			}
			return
		}
		if extra := s.faults.DelaySpike(); extra > 0 {
			s.delayed++
			if s.faultProbe != nil {
				s.faultProbe.MessageDelayed(e.name, dst.name, bytes, extra, sim.Now())
			}
			arrival += extra
		}
		if s.faults.DuplicateMessage() {
			s.duplicated++
			if s.faultProbe != nil {
				s.faultProbe.MessageDuplicated(e.name, dst.name, bytes, sim.Now())
			}
			// The duplicate trails the original by one receive overhead,
			// as a retransmitted SEND would.
			e.deliverAt(dst, arrival+f.cfg.RecvOverhead, deliver)
		}
	}
	e.deliverAt(dst, arrival, deliver)
}

// deliverAt schedules a delivery on the destination's partition.
func (e *Endpoint) deliverAt(dst *Endpoint, at float64, deliver func()) {
	f := e.fabric
	if dst.part == e.part {
		f.slots[e.part].sim.At(at, deliver)
		return
	}
	f.pd.Post(e.part, dst.part, at, deliver)
}
