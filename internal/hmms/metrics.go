package hmms

import (
	"math"

	"splitcnn/internal/trace"
)

// MaxLiveBytes returns the peak of simultaneously-live block bytes in
// one pool over the program's op timeline — the demand the allocator
// must satisfy. For a sound allocator it is a lower bound on the pool's
// static size; the difference is fragmentation.
func (m *MemoryPlan) MaxLiveBytes(pool Pool) int64 {
	// Sweep lifetimes: a block occupies [Start, End] inclusive, so it
	// contributes from Start and stops after End. The deltas are indexed
	// by op, offset by the lowest index touched.
	lo, hi := math.MaxInt, math.MinInt
	for _, b := range m.Blocks {
		if b.Pool == pool {
			lo = min(lo, b.Start, b.End+1)
			hi = max(hi, b.Start, b.End+1)
		}
	}
	if lo > hi {
		return 0
	}
	deltas := make([]int64, hi-lo+1)
	for _, b := range m.Blocks {
		if b.Pool == pool {
			deltas[b.Start-lo] += b.Bytes
			deltas[b.End+1-lo] -= b.Bytes
		}
	}
	var live, peak int64
	for _, d := range deltas {
		live += d
		peak = max(peak, live)
	}
	return peak
}

// Fragmentation returns the fraction of a pool's static size that is
// never simultaneously live: 1 − MaxLiveBytes/PoolBytes. Zero means
// the first-fit layout is perfectly tight; the NoReuse ablation drives
// it toward one.
func (m *MemoryPlan) Fragmentation(pool Pool) float64 {
	total := m.PoolBytes[pool]
	if total <= 0 {
		return 0
	}
	return 1 - float64(m.MaxLiveBytes(pool))/float64(total)
}

// RecordMetrics publishes the static plan into a metrics registry. The
// mem.device_high_water_bytes gauge is DeviceBytes() exactly (the
// allocator high-water mark across both device pools), so tests and
// dashboards can cross-check it against the simulator's planned
// footprint with ==.
func (m *MemoryPlan) RecordMetrics(reg *trace.Metrics) {
	reg.Gauge("mem.pool_host_bytes").Set(float64(m.PoolBytes[PoolHost]))
	reg.Gauge("mem.pool_device_param_bytes").Set(float64(m.PoolBytes[PoolDeviceParam]))
	reg.Gauge("mem.pool_device_general_bytes").Set(float64(m.PoolBytes[PoolDeviceGeneral]))
	reg.Gauge("mem.device_high_water_bytes").Set(float64(m.DeviceBytes()))
	reg.Gauge("mem.no_reuse_bytes").Set(float64(m.NoReuseBytes))
	reg.Gauge("mem.live_peak_device_general_bytes").Set(float64(m.MaxLiveBytes(PoolDeviceGeneral)))
	reg.Gauge("mem.fragmentation_device_general").Set(m.Fragmentation(PoolDeviceGeneral))
	reg.Counter("mem.blocks").Add(int64(len(m.Blocks)))
}
