package e2esim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestZeroOverheadBaseline(t *testing.T) {
	cfg := DefaultDCN(512)
	m, err := cfg.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Packets != cfg.FlowPackets {
		t.Errorf("packets = %d, want %d", m.Packets, cfg.FlowPackets)
	}
	if m.WireBytesPerPacket != 512 {
		t.Errorf("wire bytes = %d, want 512", m.WireBytesPerPacket)
	}
	if m.FCT <= 0 || m.GoodputBps <= 0 {
		t.Errorf("non-positive metrics: %+v", m)
	}
	// Goodput can never exceed line rate.
	if m.GoodputBps > 100e9 {
		t.Errorf("goodput %g exceeds line rate", m.GoodputBps)
	}
}

func TestOverheadGrowsPacketsWithinMTU(t *testing.T) {
	cfg := DefaultDCN(512)
	m, err := cfg.Run(68)
	if err != nil {
		t.Fatal(err)
	}
	if m.Packets != cfg.FlowPackets {
		t.Errorf("within-MTU overhead changed packet count: %d", m.Packets)
	}
	if m.WireBytesPerPacket != 580 {
		t.Errorf("wire bytes = %d, want 580", m.WireBytesPerPacket)
	}
}

func TestOverheadSplitsPacketsAtMTU(t *testing.T) {
	cfg := DefaultDCN(1500)
	m, err := cfg.Run(48)
	if err != nil {
		t.Fatal(err)
	}
	// 1500-byte packets cannot absorb 48 bytes: payload shrinks and the
	// flow needs more packets.
	if m.Packets <= cfg.FlowPackets {
		t.Errorf("MTU-limited flow should need more packets: %d", m.Packets)
	}
	if m.WireBytesPerPacket != 1500 {
		t.Errorf("wire bytes = %d, want 1500", m.WireBytesPerPacket)
	}
}

func TestMonotoneImpact(t *testing.T) {
	for _, size := range Figure2PacketSizes() {
		cfg := DefaultDCN(size)
		prevFCT := -1.0
		prevGoodput := -1.0
		for _, h := range Figure2Overheads() {
			imp, err := cfg.ImpactOf(h)
			if err != nil {
				t.Fatal(err)
			}
			if imp.FCTIncrease < prevFCT {
				t.Errorf("size %d: FCT impact not monotone at %dB", size, h)
			}
			if imp.GoodputDecrease < prevGoodput {
				t.Errorf("size %d: goodput impact not monotone at %dB", size, h)
			}
			prevFCT, prevGoodput = imp.FCTIncrease, imp.GoodputDecrease
			if imp.FCTIncrease < 0 || imp.GoodputDecrease < 0 {
				t.Errorf("size %d overhead %d: negative impact %+v", size, h, imp)
			}
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	// The paper reports that 68 bytes costs roughly +15% FCT and -16%
	// goodput on its testbed (512-byte packets). Our analytic model
	// must land in the same regime: 5-25%.
	cfg := DefaultDCN(512)
	imp, err := cfg.ImpactOf(68)
	if err != nil {
		t.Fatal(err)
	}
	if imp.FCTIncrease < 0.05 || imp.FCTIncrease > 0.25 {
		t.Errorf("FCT increase at 68B = %.1f%%, want 5-25%%", imp.FCTIncrease*100)
	}
	if imp.GoodputDecrease < 0.05 || imp.GoodputDecrease > 0.25 {
		t.Errorf("goodput decrease at 68B = %.1f%%, want 5-25%%", imp.GoodputDecrease*100)
	}
	// Larger packets absorb overhead better within MTU.
	cfg2 := DefaultDCN(1024)
	imp2, err := cfg2.ImpactOf(68)
	if err != nil {
		t.Fatal(err)
	}
	if imp2.FCTIncrease >= imp.FCTIncrease {
		t.Errorf("1024B packets should suffer less than 512B: %.3f vs %.3f",
			imp2.FCTIncrease, imp.FCTIncrease)
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := (Config{PacketBytes: 40, FlowPackets: 10}).Run(0); err == nil {
		t.Error("packet smaller than headers accepted")
	}
	if _, err := (Config{PacketBytes: 2000, FlowPackets: 10}).Run(0); err == nil {
		t.Error("packet above MTU accepted")
	}
	if _, err := (Config{PacketBytes: 512}).Run(0); err == nil {
		t.Error("zero flow size accepted")
	}
	if _, err := DefaultDCN(512).Run(-1); err == nil {
		t.Error("negative overhead accepted")
	}
	if _, err := DefaultDCN(1500).Run(1446); err == nil {
		t.Error("overhead that erases the payload accepted")
	}
}

// Property: goodput · FCT == total payload bits for any valid run.
func TestGoodputFCTIdentity(t *testing.T) {
	prop := func(size8, h8 uint8) bool {
		size := 256 + int(size8)*4 // 256..1276
		h := int(h8) % 120
		cfg := DefaultDCN(size)
		m, err := cfg.Run(h)
		if err != nil {
			return true // invalid combos are fine
		}
		payloadBits := float64(cfg.FlowPackets) * float64(size-54) * 8
		got := m.GoodputBps * m.FCT.Seconds()
		return math.Abs(got-payloadBits)/payloadBits < 1e-6
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: FCT strictly increases once overhead forces extra packets.
func TestMTUSplitStrictlyWorse(t *testing.T) {
	cfg := DefaultDCN(1500)
	m0, err := cfg.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := cfg.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if m1.FCT <= m0.FCT {
		t.Error("split flow not slower")
	}
	if m1.GoodputBps >= m0.GoodputBps {
		t.Error("split flow not lower goodput")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{PacketBytes: 512, FlowPackets: 1}.withDefaults()
	if c.MTU != 1500 || c.Hops != 5 || c.LineRateBps != 100e9 {
		t.Errorf("defaults wrong: %+v", c)
	}
	if c.PerHopLatency != time.Microsecond {
		t.Errorf("per-hop latency default = %v", c.PerHopLatency)
	}
}

func TestIntroScenarioOverheadIsNoticeable(t *testing.T) {
	// The paper's intro: ~48B of INT headers over 5 hops degrades
	// performance noticeably at DCN packet sizes. Five hops appending
	// 10B each carry 50B at the egress, the bottleneck hop.
	imp, err := DefaultDCN(512).ImpactOf(50)
	if err != nil {
		t.Fatal(err)
	}
	if imp.FCTIncrease <= 0.03 {
		t.Errorf("FCT increase = %.3f, want noticeable (>3%%)", imp.FCTIncrease)
	}
}
