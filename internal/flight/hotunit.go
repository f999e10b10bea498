package flight

// HotUnit is one join unit whose cell count dominates its peers.
type HotUnit struct {
	Unit  int     `json:"unit"`
	Cells int64   `json:"cells"`
	Mean  float64 `json:"mean_cells"`
}

// A unit is hot when it holds more than hotUnitFactor times the mean
// unit cells and at least hotUnitMinCells; at most maxHotUnits units are
// reported, largest first.
const (
	hotUnitFactor   = 4.0
	hotUnitMinCells = 256
	maxHotUnits     = 4
)

// HotUnits scans per-unit cell totals for units that dominate the mean.
// The result is ordered largest first and is fully deterministic, so
// callers may fold it into fingerprinted profiles.
func HotUnits(unitCells []int64) []HotUnit {
	if len(unitCells) == 0 {
		return nil
	}
	var total int64
	for _, c := range unitCells {
		total += c
	}
	mean := float64(total) / float64(len(unitCells))
	var hot []HotUnit
	for u, c := range unitCells {
		if c >= hotUnitMinCells && float64(c) > hotUnitFactor*mean {
			hot = append(hot, HotUnit{Unit: u, Cells: c, Mean: mean})
		}
	}
	// Largest first; ties by unit id ascending (stable and deterministic).
	for i := 1; i < len(hot); i++ {
		for j := i; j > 0 && (hot[j].Cells > hot[j-1].Cells ||
			(hot[j].Cells == hot[j-1].Cells && hot[j].Unit < hot[j-1].Unit)); j-- {
			hot[j], hot[j-1] = hot[j-1], hot[j]
		}
	}
	if len(hot) > maxHotUnits {
		hot = hot[:maxHotUnits]
	}
	return hot
}
