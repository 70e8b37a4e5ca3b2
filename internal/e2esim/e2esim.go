// Package e2esim models the end-to-end performance impact of per-packet
// byte overhead (paper §II-B, Figure 2). The mechanism is mechanical:
// piggybacked metadata either grows each packet on the wire (when the
// packet still fits the MTU) or shrinks the usable payload so the
// application needs more packets for the same message (when it does
// not). Both inflate flow completion time (FCT) and deflate goodput.
//
// The simulator reproduces the paper's testbed setup: a flow of 10^6
// packets of a fixed size crossing five switch hops at 100 Gbps, with
// the per-packet metadata size swept from 28 to 108 bytes.
package e2esim

import (
	"fmt"
	"time"
)

// Config describes a flow experiment.
type Config struct {
	// PacketBytes is the original on-wire packet size (headers +
	// payload), e.g. 512, 1024, 1500 — the paper's three settings.
	PacketBytes int
	// StackHeaderBytes is the size of the standard Ethernet/IP/TCP
	// stack inside PacketBytes. Defaults to 54 (Ethernet 14 + IPv4 20 +
	// TCP 20).
	StackHeaderBytes int
	// MTU is the maximum transmission unit. Defaults to 1500.
	MTU int
	// FlowPackets is the number of original-size packets in the flow;
	// the paper uses 10^6.
	FlowPackets int
	// LineRateBps is the bottleneck rate in bits/s. Defaults to 100e9
	// (the paper's 100 Gbps ports).
	LineRateBps float64
	// Hops is the number of switches traversed; the paper repeats L3
	// routing five times.
	Hops int
	// PerHopLatency is the one-way latency contributed by each hop
	// (switch transit + link). Defaults to 1 µs.
	PerHopLatency time.Duration
	// HostPerPacket is the fixed per-packet processing cost at the
	// end-hosts (PktGen/DPDK descriptor handling). Defaults to 10 ns.
	HostPerPacket time.Duration
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.StackHeaderBytes == 0 {
		c.StackHeaderBytes = 54
	}
	if c.MTU == 0 {
		c.MTU = 1500
	}
	if c.LineRateBps == 0 {
		c.LineRateBps = 100e9
	}
	if c.Hops == 0 {
		c.Hops = 5
	}
	if c.PerHopLatency == 0 {
		c.PerHopLatency = time.Microsecond
	}
	if c.HostPerPacket == 0 {
		c.HostPerPacket = 10 * time.Nanosecond
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.PacketBytes <= c.StackHeaderBytes {
		return fmt.Errorf("e2esim: packet %dB leaves no payload after %dB headers",
			c.PacketBytes, c.StackHeaderBytes)
	}
	if c.PacketBytes > c.MTU {
		return fmt.Errorf("e2esim: packet %dB exceeds MTU %d", c.PacketBytes, c.MTU)
	}
	if c.FlowPackets <= 0 {
		return fmt.Errorf("e2esim: non-positive flow size %d", c.FlowPackets)
	}
	return nil
}

// FlowMetrics is the outcome of one flow transfer.
type FlowMetrics struct {
	// FCT is the flow completion time.
	FCT time.Duration
	// GoodputBps is application payload bits per second.
	GoodputBps float64
	// Packets is the number of packets actually sent.
	Packets int
	// WireBytesPerPacket is the on-wire packet size used.
	WireBytesPerPacket int
}

// Run simulates transferring the flow with the given per-packet
// metadata overhead.
func (c Config) Run(overheadBytes int) (FlowMetrics, error) {
	if overheadBytes < 0 {
		return FlowMetrics{}, fmt.Errorf("e2esim: negative overhead %d", overheadBytes)
	}
	if err := c.Validate(); err != nil {
		return FlowMetrics{}, err
	}
	c = c.withDefaults()

	payloadPerOriginal := c.PacketBytes - c.StackHeaderBytes
	totalPayload := int64(c.FlowPackets) * int64(payloadPerOriginal)

	var packets int64
	var wireBytes int
	if c.PacketBytes+overheadBytes <= c.MTU {
		// The metadata rides along: packets grow but the count is
		// unchanged.
		packets = int64(c.FlowPackets)
		wireBytes = c.PacketBytes + overheadBytes
	} else {
		// The application must shrink its payload to fit MTU; more
		// packets carry the same message.
		perPacket := c.MTU - c.StackHeaderBytes - overheadBytes
		if perPacket <= 0 {
			return FlowMetrics{}, fmt.Errorf("e2esim: overhead %dB leaves no payload within MTU %d",
				overheadBytes, c.MTU)
		}
		packets = (totalPayload + int64(perPacket) - 1) / int64(perPacket)
		wireBytes = c.MTU
	}

	serialization := time.Duration(float64(packets) * float64(wireBytes) * 8 / c.LineRateBps * float64(time.Second))
	perPacketHost := time.Duration(packets) * c.HostPerPacket
	pipeline := time.Duration(c.Hops) * c.PerHopLatency
	fct := serialization + perPacketHost + pipeline

	goodput := float64(totalPayload) * 8 / fct.Seconds()
	return FlowMetrics{
		FCT:                fct,
		GoodputBps:         goodput,
		Packets:            int(packets),
		WireBytesPerPacket: wireBytes,
	}, nil
}

// Impact reports the normalized degradation versus the zero-overhead
// baseline: the fractional FCT increase and goodput decrease, the
// quantities Figure 2 plots.
type Impact struct {
	OverheadBytes   float64
	FCTIncrease     float64 // e.g. 0.15 == +15% FCT
	GoodputDecrease float64 // e.g. 0.16 == -16% goodput
}

// ImpactOf computes the normalized impact of the overhead.
func (c Config) ImpactOf(overheadBytes int) (Impact, error) {
	base, err := c.Run(0)
	if err != nil {
		return Impact{}, err
	}
	with, err := c.Run(overheadBytes)
	if err != nil {
		return Impact{}, err
	}
	return Impact{
		OverheadBytes:   float64(overheadBytes),
		FCTIncrease:     with.FCT.Seconds()/base.FCT.Seconds() - 1,
		GoodputDecrease: 1 - with.GoodputBps/base.GoodputBps,
	}, nil
}

// Figure2Overheads is the paper's sweep: 28 to 108 bytes.
func Figure2Overheads() []int {
	return []int{28, 48, 68, 88, 108}
}

// Figure2PacketSizes is the paper's packet-size settings.
func Figure2PacketSizes() []int {
	return []int{512, 1024, 1500}
}

// DefaultDCN returns the paper's testbed flow configuration for the
// given packet size.
func DefaultDCN(packetBytes int) Config {
	return Config{
		PacketBytes: packetBytes,
		FlowPackets: 1_000_000,
		Hops:        5,
	}.withDefaults()
}
