package route

// The reference selections Refresh's tables are held to, one pair at a
// time over the estimates themselves. BestLat is the latency scan's
// twin (minSumVia over keys with the dead links pinned to latDead);
// BestLossStable and BestLatStable are the damped twin: hysteresis
// applied through BestLoss and BestLat, queried in destination-major
// order, moves the held paths exactly as a rescan does
// (TestSnapshotMatchesStableSelections,
// FuzzSnapshotMatchesStableSelections, FuzzRefreshMatchesReference).

// BestLat returns the latency-optimized path from src to dst, skipping
// completely failed links ("minimizes latency and avoids completely
// failed links", §4). If every candidate path crosses a dead link, the
// direct path is returned as a last resort.
func (s *Selector) BestLat(src, dst int) Choice {
	direct := s.link(src, dst)
	best := Choice{Via: -1, Loss: direct.LossRate(s.window), Latency: direct.LatencyEstimate(s.fallbackLat)}
	bestAlive := !direct.Dead(DefaultDeadThreshold)
	for vi, stop := s.viaRange(); vi < stop; vi++ {
		via := s.viaAt(vi)
		if via == src || via == dst {
			continue
		}
		l1, l2 := s.link(src, via), s.link(via, dst)
		if l1.Dead(DefaultDeadThreshold) || l2.Dead(DefaultDeadThreshold) {
			continue
		}
		lat := l1.LatencyEstimate(s.fallbackLat) + l2.LatencyEstimate(s.fallbackLat)
		loss := pathLoss(l1.LossRate(s.window), l2.LossRate(s.window))
		if !bestAlive || lat < best.Latency {
			best = Choice{Via: via, Loss: loss, Latency: lat}
			bestAlive = true
		}
	}
	return best
}

// evaluate scores one candidate path.
func (s *Selector) evaluate(src, dst, via int) Choice {
	if via < 0 {
		le := s.link(src, dst)
		return Choice{Via: -1, Loss: le.LossRate(s.window),
			Latency: le.LatencyEstimate(s.fallbackLat)}
	}
	l1, l2 := s.link(src, via), s.link(via, dst)
	return Choice{
		Via:  via,
		Loss: pathLoss(l1.LossRate(s.window), l2.LossRate(s.window)),
		Latency: l1.LatencyEstimate(s.fallbackLat) +
			l2.LatencyEstimate(s.fallbackLat),
	}
}

// pathDead reports whether a candidate path crosses a dead link.
func (s *Selector) pathDead(src, dst, via int) bool {
	if via < 0 {
		return s.link(src, dst).Dead(DefaultDeadThreshold)
	}
	return s.link(src, via).Dead(DefaultDeadThreshold) || s.link(via, dst).Dead(DefaultDeadThreshold)
}

// BestLossStable is BestLoss with hysteresis: the previously chosen path
// is kept unless the fresh optimum beats its loss estimate by the
// configured margin (absolute when the incumbent's loss is ~0), or the
// incumbent crosses a dead link. Without hysteresis it equals BestLoss.
func (s *Selector) BestLossStable(src, dst int) Choice {
	best := s.BestLoss(src, dst)
	if s.hysteresis <= 0 {
		return best
	}
	cur := int(s.prevLoss[dst*s.n+src])
	held := s.evaluate(src, dst, cur)
	if !s.pathDead(src, dst, cur) && !betterBy(best.Loss, held.Loss, s.hysteresis) {
		return held
	}
	s.prevLoss[dst*s.n+src] = viaIdx(best.Via)
	return best
}

// BestLatStable is BestLat with hysteresis on the latency metric.
func (s *Selector) BestLatStable(src, dst int) Choice {
	best := s.BestLat(src, dst)
	if s.hysteresis <= 0 {
		return best
	}
	cur := int(s.prevLat[dst*s.n+src])
	held := s.evaluate(src, dst, cur)
	if !s.pathDead(src, dst, cur) &&
		!betterBy(float64(best.Latency), float64(held.Latency), s.hysteresis) {
		return held
	}
	s.prevLat[dst*s.n+src] = viaIdx(best.Via)
	return best
}
