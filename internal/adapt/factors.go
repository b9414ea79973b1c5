package adapt

import (
	"maps"
	"slices"
	"strings"
)

// maxFactor clamps a device's learned cost multiplier to
// [1/maxFactor, maxFactor].
const maxFactor = 64.0

// DeviceEstimate is one device's learned price, for /debug/adapt.
type DeviceEstimate struct {
	Device string `json:"device"`
	// PerRowNs is the device's p50 attempt latency per coded row, from the
	// fleet's straggler record (0 while the record holds too few samples).
	PerRowNs int64 `json:"perRowNs"`
	// RTTNs is the last round trip of the device's connection (0 when never
	// measured).
	RTTNs int64 `json:"rttNs"`
	// Factor is the learned cost multiplier (1 = nominal).
	Factor float64 `json:"factor"`
}

// estimate prices the hosts from one read of the substrate. A host's compute
// ratio is its per-row p50 (Substrate.RowLatencies) over the median of every
// measured device's; its network ratio is its RTT over the median of the
// hosts' RTTs; its factor is the larger of the two, clamped to
// [1/maxFactor, maxFactor]. A host with neither signal is nominal and left
// out, which is what makes an unmeasured standby an attractive target. The
// result is sorted by address.
func estimate(sub Substrate, hosts []Host) []DeviceEstimate {
	perRow := sub.RowLatencies()
	rtts := make(map[string]float64, len(hosts))
	for _, h := range hosts {
		if rtt, ok := sub.RTT(h.Addr); ok && rtt > 0 {
			rtts[h.Addr] = rtt.Seconds()
		}
	}
	medRow, medRTT := median(perRow), median(rtts)
	var out []DeviceEstimate
	for _, h := range hosts {
		row, measured := perRow[h.Addr]
		rtt, pinged := rtts[h.Addr]
		if !measured && !pinged {
			continue
		}
		f := 1.0
		if measured && medRow > 0 {
			f = row / medRow
		}
		if pinged && medRTT > 0 {
			f = max(f, rtt/medRTT)
		}
		out = append(out, DeviceEstimate{
			Device:   h.Addr,
			PerRowNs: int64(row * 1e9),
			RTTNs:    int64(rtt * 1e9),
			Factor:   min(max(f, 1/maxFactor), maxFactor),
		})
	}
	slices.SortFunc(out, func(a, b DeviceEstimate) int { return strings.Compare(a.Device, b.Device) })
	return out
}

// median is the median of v's values (0 when v is empty).
func median(v map[string]float64) float64 {
	s := slices.Sorted(maps.Values(v))
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
