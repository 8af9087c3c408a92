// Tourist is the paper's §2 motivating scenario on the live peer runtime: a
// tourist's handset wants inexpensive, highly rated restaurants within
// walking distance, but its own data covers only part of the area, so it
// queries nearby devices over ad hoc links. Every device is a tcp.Peer
// listening on loopback; queries and results cross real sockets in the
// binary wire format.
//
// Run with: go run ./examples/tourist
package main

import (
	"fmt"
	"io"
	"os"
	"sort"

	"manetskyline/internal/core"
	"manetskyline/internal/gen"
	"manetskyline/internal/tcp"
	"manetskyline/internal/tuple"
)

const (
	// g is the side of the device grid: g×g devices.
	g = 4
	// radioRange links every device to its eight grid neighbours.
	radioRange = 380
	// tourist indexes the querying device, near the middle of the city.
	tourist = 5
	// walkingDistance is the query's distance constraint in metres.
	walkingDistance = 300
)

// district is a city district: 20,000 restaurants over a 1000×1000 m area,
// each with a price level and a rating (smaller is better for both, as in
// the paper's examples).
var district = gen.DefaultConfig(20000, 2, gen.Independent, 2026)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tourist:", err)
		os.Exit(1)
	}
}

// city starts one peer per cell of the district and links the peers within
// radio range. It returns the restaurants each peer holds and the peers;
// the caller closes the peers.
func city() ([][]tuple.Tuple, []*tcp.Peer, error) {
	// Sixteen devices each carry the data of one 250×250 m cell — nobody
	// holds the whole city.
	parts := gen.GridPartition(gen.Generate(district), g, district.Space)
	dir := tcp.NewDirectory()
	peers := make([]*tcp.Peer, 0, len(parts))
	for i, part := range parts {
		pos := gen.CellRect(i/g, i%g, g, district.Space).Center()
		p, err := tcp.NewPeer(core.DeviceID(i), part, district.Schema(), core.Under, true, pos, dir, tcp.DefaultConfig())
		if err != nil {
			closeAll(peers)
			return nil, nil, fmt.Errorf("start peer %d: %w", i, err)
		}
		peers = append(peers, p)
	}
	// Ad hoc links between devices within radio range.
	for _, a := range peers {
		for _, b := range peers {
			if a != b && a.Pos().WithinDist(b.Pos(), radioRange) {
				a.AddNeighbor(b.ID())
			}
		}
	}
	return parts, peers, nil
}

// closeAll closes every peer.
func closeAll(peers []*tcp.Peer) {
	for _, p := range peers {
		p.Close()
	}
}

// run answers the tourist's query twice, from the handset's own data and
// from the whole network, and writes both answers to w.
func run(w io.Writer) error {
	parts, peers, err := city()
	if err != nil {
		return err
	}
	defer closeAll(peers)
	me := peers[tourist]

	dev := core.NewDevice(me.ID(), parts[tourist], district.Schema(), core.Under, true)
	_, local := dev.Originate(me.Pos(), walkingDistance)
	fmt.Fprintf(w, "my own data only: %d candidate restaurants\n", len(local.Skyline))

	res, err := me.Query(walkingDistance, len(peers))
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	fmt.Fprintf(w, "after asking %d nearby devices (%.0f ms): %d candidates, complete=%v\n\n",
		res.Results, float64(res.Elapsed.Microseconds())/1000, len(res.Skyline), res.Complete)

	sort.Slice(res.Skyline, func(i, j int) bool {
		return res.Skyline[i].Attrs[0] < res.Skyline[j].Attrs[0]
	})
	fmt.Fprintln(w, "the skyline — no restaurant is both cheaper and better rated than any of these:")
	for _, r := range res.Skyline {
		fmt.Fprintf(w, "  at (%4.0f,%4.0f)  %3.0f m away  price level %4.0f  rating %4.0f\n",
			r.X, r.Y, me.Pos().Dist(r.Pos()), r.Attrs[0], r.Attrs[1])
	}
	return nil
}
