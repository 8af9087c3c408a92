package radio

import "manetskyline/internal/tuple"

// The spatial index is a two-level uniform grid over node positions with
// cell side equal to the transmission range.
//
// Fine level: a dense array of ID-sorted node buckets over the occupied
// cell bounding box (node fields are bounded, so the box stays small and
// avoids hashing). Coarse level: 8×8 blocks of fine cells with occupancy
// counts, so probes over large rings skip empty regions in one comparison
// per block instead of touching 64 empty buckets.
//
// The grid is rebuilt on *epochs* and its buckets stay frozen in between,
// using the physical speed bound of the mobility model:
//
//   - Every node's bucket holds its position at the epoch, so a node within
//     Range of the probe point now sits in a bucket at most
//     Range + MaxSpeed·(now−epoch) away from it: probing all cells
//     intersecting that expanded ring, and re-checking the candidates at
//     their true positions, finds exactly the true neighbors.
//   - When the expansion exceeds one cell side, the grid rebuilds (O(n),
//     amortized over the epoch instead of per event).
//
// A probe either lists every neighbor (NeighborsInto) or returns only the
// smallest-ID neighbor outside a tried set (FirstNeighborExcept). Both run
// the same preamble (neighborCandidates: ensure, widen, gather), so both are
// exact in every mode below.
//
// With MaxSpeed unknown (zero), the grid rebuilds on every timestep, which
// is exact for arbitrary motion — including the teleporting churn the tests
// inject. A negative MaxSpeed declares all nodes static: the grid is built
// once and never rebuilt.
const coarseShift = 3 // coarse block = 8×8 fine cells

type grid struct {
	side     float64 // fine cell side (= Range)
	maxSpeed float64 // speed bound: 0 unknown, <0 static, >0 bound in m/s
	built    bool    // false until the first build and after AddNode
	epoch    float64 // time of the last full rebuild

	minX, minY int32 // fine-cell coordinate of cells[0]
	w, h       int32 // fine grid dimensions
	cw         int32 // coarse grid columns
	cells      [][]int32
	coarse     []int32
}

// cellCoord maps a position to fine-cell coordinates.
func (g *grid) cellCoord(x, y float64) (int32, int32) {
	return int32(floorDiv(x, g.side)), int32(floorDiv(y, g.side))
}

// floorDiv is math.Floor(v/side) without the import noise.
func floorDiv(v, side float64) float64 {
	q := v / side
	f := float64(int64(q))
	if q < f {
		f--
	}
	return f
}

// gridEnsure brings the index up to date for a probe at time now: it
// rebuilds when the grid is missing, the node set grew, or the staleness
// ring has expanded past one cell side. A rebuild memoizes every node's
// position at now, so epoch == now afterwards.
func (m *Medium) gridEnsure(now float64) {
	g := &m.grid
	rebuild := !g.built
	if !rebuild {
		switch {
		case g.maxSpeed == 0: // unknown motion: per-timestep rebuild
			rebuild = g.epoch != now
		case g.maxSpeed > 0: // bounded motion: rebuild when drift exceeds a cell
			rebuild = (now-g.epoch)*g.maxSpeed > g.side
		}
		// maxSpeed < 0: static field, the first build stays exact forever.
	}
	if rebuild {
		m.gridRebuild(now)
	}
}

// gridRebuild reindexes every node at time now. Buckets keep their capacity
// across rebuilds.
func (m *Medium) gridRebuild(now float64) {
	g := &m.grid
	g.side = m.cfg.Range
	n := len(m.mobs)
	if words := (n + 63) / 64; len(m.inRange) < words {
		m.inRange = make([]uint64, words)
	}
	if n == 0 {
		g.w, g.h = 0, 0
		g.epoch = now
		g.built = true
		return
	}
	// Pass 1: memoize positions, track the occupied cell bounding box.
	p := m.posOfIdx(0, now)
	minX, minY := g.cellCoord(p.X, p.Y)
	maxX, maxY := minX, minY
	for i := 1; i < n; i++ {
		q := m.posOfIdx(int32(i), now)
		cx, cy := g.cellCoord(q.X, q.Y)
		if cx < minX {
			minX = cx
		} else if cx > maxX {
			maxX = cx
		}
		if cy < minY {
			minY = cy
		} else if cy > maxY {
			maxY = cy
		}
	}
	g.minX, g.minY = minX, minY
	g.w = maxX - minX + 1
	g.h = maxY - minY + 1
	size := int(g.w) * int(g.h)
	for len(g.cells) < size {
		g.cells = append(g.cells, nil)
	}
	for i := 0; i < size; i++ {
		g.cells[i] = g.cells[i][:0]
	}
	g.cw = (g.w + (1 << coarseShift) - 1) >> coarseShift
	ch := (g.h + (1 << coarseShift) - 1) >> coarseShift
	csize := int(g.cw) * int(ch)
	for len(g.coarse) < csize {
		g.coarse = append(g.coarse, 0)
	}
	for i := 0; i < csize; i++ {
		g.coarse[i] = 0
	}
	// Pass 2: bucket the nodes.
	for i := 0; i < n; i++ {
		cx, cy := g.cellCoord(m.posX[i], m.posY[i])
		idx := (cy-g.minY)*g.w + (cx - g.minX)
		g.cells[idx] = append(g.cells[idx], int32(i))
		g.coarse[g.coarseIdx(idx)]++
	}
	g.epoch = now
	g.built = true
}

// coarseIdx maps a fine flat index to its coarse block index.
func (g *grid) coarseIdx(fine int32) int32 {
	lx, ly := fine%g.w, fine/g.w
	return (ly>>coarseShift)*g.cw + (lx >> coarseShift)
}

// gridGather collects the node indices of every bucket intersecting the
// disk of the given radius around p into m.scratch, or reports full=true
// when the probe covers the whole occupied box (the caller then scans all
// nodes directly, in ID order, with no gather). Coarse blocks
// with zero occupancy are skipped wholesale, and fine cells entirely
// outside the disk are pruned by rectangle distance.
func (m *Medium) gridGather(p tuple.Point, radius float64) (cand []int32, full bool) {
	g := &m.grid
	cx0, cy0 := g.cellCoord(p.X-radius, p.Y-radius)
	cx1, cy1 := g.cellCoord(p.X+radius, p.Y+radius)
	bx0, by0 := cx0-g.minX, cy0-g.minY
	bx1, by1 := cx1-g.minX, cy1-g.minY
	if bx0 < 0 {
		bx0 = 0
	}
	if by0 < 0 {
		by0 = 0
	}
	if bx1 >= g.w {
		bx1 = g.w - 1
	}
	if by1 >= g.h {
		by1 = g.h - 1
	}
	if bx0 == 0 && by0 == 0 && bx1 == g.w-1 && by1 == g.h-1 {
		return nil, true
	}
	cand = m.scratch[:0]
	r2 := radius * radius
	for by := by0; by <= by1; by++ {
		// Cell rows are grouped by coarse block row; skip empty blocks.
		crow := (by >> coarseShift) * g.cw
		y0 := float64(g.minY+by) * g.side
		dy := 0.0
		if p.Y < y0 {
			dy = y0 - p.Y
		} else if p.Y > y0+g.side {
			dy = p.Y - (y0 + g.side)
		}
		row := by * g.w
		for bx := bx0; bx <= bx1; {
			cb := crow + (bx >> coarseShift)
			if g.coarse[cb] == 0 {
				// Jump to the first cell of the next coarse block.
				bx = (bx>>coarseShift + 1) << coarseShift
				continue
			}
			x0 := float64(g.minX+bx) * g.side
			dx := 0.0
			if p.X < x0 {
				dx = x0 - p.X
			} else if p.X > x0+g.side {
				dx = p.X - (x0 + g.side)
			}
			if dx*dx+dy*dy <= r2 {
				cand = append(cand, g.cells[row+bx]...)
			}
			bx++
		}
	}
	m.scratch = cand
	return cand, false
}
