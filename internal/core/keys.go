package core

import "castencil/internal/grid"

// TileKey addresses a tile's persistent state in a node store.
type TileKey struct {
	TI, TJ int
}

// tileState is the double-buffered tile a task chain owns. Only the tasks
// of tile (ti, tj) ever touch it; neighbors see packed copies.
type tileState struct {
	cur, next *grid.Tile
	r0, c0    int // global origin
}
