package platform

// Presets for the three Argonne machines used in the paper. The absolute
// constants follow Figure 2 of the paper (b = 0.1 Gb/s per node on Intrepid)
// and public peak-bandwidth figures. Only the
// congestion ratio (aggregate demand / B) matters for the reproduced
// comparisons, and the workload generators calibrate against these values.

// Intrepid returns the Argonne Intrepid preset: a 40-rack BlueGene/P
// (40,960 nodes). Per-node I/O-card bandwidth 0.0125 GiB/s (0.1 Gb/s, as
// in Figure 2); the file-system bandwidth models the *sustained
// concurrent-write* bandwidth (well below the 88 GB/s theoretical peak —
// see [22] on output bottlenecks), which is what the paper's congestion
// numbers imply. The production configuration modeled in
// Section 4.4 includes burst buffers.
func Intrepid() *Platform {
	return &Platform{
		Name:    "intrepid",
		Nodes:   40960,
		NodeBW:  0.0125,
		TotalBW: 24,
		BurstBuffer: &BurstBuffer{
			Capacity: 2048, // ~85 s of drain at full speed
			IngestBW: 4 * 24,
		},
	}
}

// Mira returns the Argonne Mira preset: a 48-rack BlueGene/Q
// (49,152 nodes), roughly 20x Intrepid's compute. Per-node bandwidth
// 0.03125 GiB/s (0.25 Gb/s); file-system bandwidth again the sustained
// concurrent-write figure rather than the 240 GB/s peak.
func Mira() *Platform {
	return &Platform{
		Name:    "mira",
		Nodes:   49152,
		NodeBW:  0.03125,
		TotalBW: 72,
		BurstBuffer: &BurstBuffer{
			Capacity: 6144,
			IngestBW: 4 * 72,
		},
	}
}

// Vesta returns the Argonne Vesta preset: Mira's 2-rack test and
// development platform (2,048 nodes), the machine used for the paper's
// Section 5 experiments. The file system is scaled at 2/48 of Mira's.
func Vesta() *Platform {
	return &Platform{
		Name:    "vesta",
		Nodes:   2048,
		NodeBW:  0.03125,
		TotalBW: 10,
		// A modest development-machine staging tier: Section 5 finds the
		// burst buffers comparable to the heuristics once three or more
		// applications contend, which bounds their effective size.
		BurstBuffer: &BurstBuffer{
			Capacity: 128,
			IngestBW: 2 * 10,
		},
	}
}

// Presets returns all machine presets keyed by name.
func Presets() map[string]*Platform {
	return map[string]*Platform{
		"intrepid": Intrepid(),
		"mira":     Mira(),
		"vesta":    Vesta(),
	}
}
