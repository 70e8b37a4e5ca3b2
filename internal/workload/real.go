// Package workload provides the data plane programs used by the
// evaluation: ten realistic programs modeled on switch.p4 feature
// slices (the paper deploys ten versions of switch.p4 [58]), a
// synthetic program generator with the paper's published parameters
// (10–20 MATs per program, 30% pairwise dependency probability, 10–50%
// per-stage resource consumption), and the SDM sketch set of Exp#6.
package workload

import (
	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/program"
)

// Ten real-world programs. Each models one feature slice of switch.p4:
// realistic match kinds, rule capacities, and metadata flows.

// L2Forwarding: source MAC learning notification plus destination MAC
// forwarding.
func L2Forwarding() *program.Program {
	smacHit := fields.Metadata("meta.smac_hit", 8)
	egress := fields.CatalogField(fields.MetaEgressPort)
	return program.NewBuilder("l2fwd").
		Table("smac", 4096).
		Key(fields.CatalogField(fields.EthSrc), program.MatchExact).
		ActionDef("hit", program.SetOp(smacHit, 1)).
		ActionDef("learn", program.SetOp(smacHit, 0)).
		Default("learn").
		Table("dmac", 4096).
		Key(fields.CatalogField(fields.EthDst), program.MatchExact).
		ActionDef("forward", program.SetOp(egress, 0)).
		ActionDef("flood", program.SetOp(egress, 0xFFFF)).
		Default("flood").
		Gate("smac", "dmac").
		MustBuild()
}

// L3Routing: LPM route lookup, next-hop resolution, TTL decrement.
func L3Routing() *program.Program {
	nh := fields.CatalogField(fields.MetaNextHop)
	egress := fields.CatalogField(fields.MetaEgressPort)
	ttl := fields.CatalogField(fields.IPv4TTL)
	return program.NewBuilder("l3route").
		Table("ipv4_lpm", 16384).
		Key(fields.CatalogField(fields.IPv4Dst), program.MatchLPM).
		ActionDef("set_nhop", program.SetOp(nh, 0), program.DecOp(ttl, 1)).
		Default("set_nhop").
		Table("nexthop", 1024).
		Key(nh, program.MatchExact).
		ActionDef("fwd", program.SetOp(egress, 0), program.CopyOp(fields.CatalogField(fields.EthDst), nh)).
		Default("fwd").
		MustBuild()
}

// ACL: ternary 5-tuple access control.
func ACL() *program.Program {
	drop := fields.CatalogField(fields.MetaDropFlag)
	cls := fields.CatalogField(fields.MetaClass)
	return program.NewBuilder("acl").
		Table("acl_rules", 8192).
		Key(fields.CatalogField(fields.IPv4Src), program.MatchTernary).
		Key(fields.CatalogField(fields.IPv4Dst), program.MatchTernary).
		Key(fields.CatalogField(fields.TCPDst), program.MatchRange).
		ActionDef("deny", program.SetOp(drop, 1)).
		ActionDef("permit", program.SetOp(drop, 0), program.SetOp(cls, 1)).
		Default("permit").
		Table("drop_ctl", 2).
		Key(drop, program.MatchExact).
		ActionDef("discard", program.SetOp(fields.CatalogField(fields.MetaEgressPort), 0xFFFF)).
		MustBuild()
}

// NAT: source NAT with port rewrite.
func NAT() *program.Program {
	natAddr := fields.CatalogField(fields.MetaNATAddr)
	natPort := fields.CatalogField(fields.MetaNATPort)
	return program.NewBuilder("nat").
		Table("nat_lookup", 8192).
		Key(fields.CatalogField(fields.IPv4Src), program.MatchExact).
		Key(fields.CatalogField(fields.TCPSrc), program.MatchExact).
		ActionDef("translate", program.SetOp(natAddr, 0), program.SetOp(natPort, 0)).
		Default("translate").
		Table("rewrite", 1024).
		Key(natAddr, program.MatchExact).
		ActionDef("apply",
			program.CopyOp(fields.CatalogField(fields.IPv4Src), natAddr),
			program.CopyOp(fields.CatalogField(fields.TCPSrc), natPort)).
		Default("apply").
		MustBuild()
}

// Tunnel: VXLAN-style encapsulation.
func Tunnel() *program.Program {
	tid := fields.CatalogField(fields.MetaTunnelID)
	vni := fields.CatalogField(fields.MetaVNI)
	return program.NewBuilder("tunnel").
		Table("tunnel_map", 4096).
		Key(fields.CatalogField(fields.VlanID), program.MatchExact).
		ActionDef("set_tunnel", program.SetOp(tid, 0)).
		Default("set_tunnel").
		Table("vni_assign", 4096).
		Key(tid, program.MatchExact).
		ActionDef("encap", program.SetOp(vni, 0)).
		Default("encap").
		Table("underlay", 1024).
		Key(vni, program.MatchExact).
		ActionDef("route", program.SetOp(fields.CatalogField(fields.MetaEgressPort), 0)).
		Default("route").
		MustBuild()
}

// QoS: DSCP classification, metering, and remarking.
func QoS() *program.Program {
	cls := fields.CatalogField(fields.MetaClass)
	color := fields.CatalogField(fields.MetaMeterColor)
	return program.NewBuilder("qos").
		Table("classify", 2048).
		Key(fields.CatalogField(fields.IPv4DSCP), program.MatchExact).
		Key(fields.CatalogField(fields.TCPDst), program.MatchRange).
		ActionDef("set_class", program.SetOp(cls, 0)).
		Default("set_class").
		Table("meter", 256).
		Key(cls, program.MatchExact).
		ActionDef("color", program.SetOp(color, 0)).
		Default("color").
		Table("remark", 16).
		Key(color, program.MatchExact).
		ActionDef("mark", program.SetOp(fields.CatalogField(fields.IPv4DSCP), 0)).
		Default("mark").
		MustBuild()
}

// INT: in-band network telemetry source — records switch ID, ingress
// timestamp, and queue depth for export (Table I metadata).
func INT() *program.Program {
	swid := fields.CatalogField(fields.MetaSwitchID)
	ts := fields.CatalogField(fields.MetaTimestamp)
	qlen := fields.CatalogField(fields.MetaQueueLen)
	depth := fields.CatalogField(fields.MetaINTDepth)
	return program.NewBuilder("int").
		Table("int_source", 64).
		Key(fields.CatalogField(fields.UDPDst), program.MatchExact).
		ActionDef("stamp",
			program.SetOp(swid, 1),
			program.SetOp(ts, 0),
			program.SetOp(qlen, 0)).
		Default("stamp").
		Table("int_transit", 64).
		Key(swid, program.MatchExact).
		ActionDef("push", program.AddOp(depth, swid, 1)).
		Default("push").
		Table("int_sink", 64).
		Key(depth, program.MatchRange).
		ActionDef("export", program.CopyOp(fields.CatalogField(fields.MetaFlowID), ts)).
		Default("export").
		MustBuild()
}

// CountMinSketch: three hash rows with per-row counters and a minimum
// aggregation, the classic SDM workload [30].
func CountMinSketch() *program.Program {
	h0 := fields.CatalogField(fields.MetaHash0)
	h1 := fields.CatalogField(fields.MetaHash1)
	h2 := fields.CatalogField(fields.MetaHash2)
	cnt := fields.CatalogField(fields.MetaCount)
	src := fields.CatalogField(fields.IPv4Src)
	dst := fields.CatalogField(fields.IPv4Dst)
	return program.NewBuilder("cmsketch").
		Table("hashes", 1).
		ActionDef("mix",
			program.HashOp(h0, src, dst),
			program.HashOp(h1, dst, src),
			program.HashOp(h2, src, src)).
		Default("mix").
		Table("row0", 65536).
		Key(h0, program.MatchExact).
		ActionDef("bump", program.CountOp(cnt, h0)).
		Default("bump").
		Table("row1", 65536).
		Key(h1, program.MatchExact).
		ActionDef("bump", program.CountOp(cnt, h1)).
		Default("bump").
		Table("row2", 65536).
		Key(h2, program.MatchExact).
		ActionDef("bump", program.CountOp(cnt, h2)).
		Default("bump").
		MustBuild()
}

// HeavyHitter: hash, count, and threshold-flag elephants [3].
func HeavyHitter() *program.Program {
	idx := fields.CatalogField(fields.MetaCounterIndex)
	cnt := fields.CatalogField(fields.MetaCount)
	heavy := fields.CatalogField(fields.MetaHeavyFlag)
	return program.NewBuilder("heavyhitter").
		Table("flow_hash", 1).
		ActionDef("mix", program.HashOp(idx,
			fields.CatalogField(fields.IPv4Src),
			fields.CatalogField(fields.IPv4Dst),
			fields.CatalogField(fields.TCPSrc),
			fields.CatalogField(fields.TCPDst))).
		Default("mix").
		Table("flow_count", 32768).
		Key(idx, program.MatchExact).
		ActionDef("bump", program.CountOp(cnt, idx)).
		Default("bump").
		Table("threshold", 8).
		Key(cnt, program.MatchRange).
		ActionDef("flag", program.SetOp(heavy, 1)).
		ActionDef("pass", program.SetOp(heavy, 0)).
		Default("pass").
		MustBuild()
}

// LoadBalancer: consistent-hash bucket selection with VIP rewrite [47].
func LoadBalancer() *program.Program {
	flow := fields.CatalogField(fields.MetaFlowID)
	bucket := fields.CatalogField(fields.MetaLBBucket)
	return program.NewBuilder("lb").
		Table("vip", 1024).
		Key(fields.CatalogField(fields.IPv4Dst), program.MatchExact).
		Key(fields.CatalogField(fields.TCPDst), program.MatchExact).
		ActionDef("pick", program.HashOp(flow,
			fields.CatalogField(fields.IPv4Src),
			fields.CatalogField(fields.TCPSrc))).
		Default("pick").
		Table("bucket", 8192).
		Key(flow, program.MatchExact).
		ActionDef("select", program.SetOp(bucket, 0)).
		Default("select").
		Table("dip_rewrite", 8192).
		Key(bucket, program.MatchExact).
		ActionDef("rewrite", program.CopyOp(fields.CatalogField(fields.IPv4Dst), bucket)).
		Default("rewrite").
		MustBuild()
}

// RealPrograms returns the ten real programs, in a stable order.
func RealPrograms() []*program.Program {
	return []*program.Program{
		L2Forwarding(),
		L3Routing(),
		ACL(),
		NAT(),
		Tunnel(),
		QoS(),
		INT(),
		CountMinSketch(),
		HeavyHitter(),
		LoadBalancer(),
	}
}
