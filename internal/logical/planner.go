package logical

import (
	"fmt"
	"math"
	"sort"

	"shufflejoin/internal/join"
	"shufflejoin/internal/shuffle"
)

// AlignOp enumerates the schema-alignment operators of Table 1 usable on a
// join input, and OutOp those usable on the join output.
type AlignOp int

const (
	// OpScan accesses the data as stored: valid only when the array already
	// conforms to the join schema. Cost 0; output ordered chunks.
	OpScan AlignOp = iota
	// OpRedim converts attributes to dimensions (or realigns chunking) and
	// sorts each new chunk. Cost n + n·log(n/c); output ordered chunks.
	OpRedim
	// OpRechunk reassigns cells to the join schema's chunk intervals
	// without sorting. Cost n; output unordered chunks.
	OpRechunk
	// OpHash maps cells to hash buckets on the predicate key. Cost n;
	// output unordered, dimension-less buckets.
	OpHash
)

func (op AlignOp) String() string {
	switch op {
	case OpScan:
		return "scan"
	case OpRedim:
		return "redim"
	case OpRechunk:
		return "rechunk"
	case OpHash:
		return "hash"
	default:
		return fmt.Sprintf("AlignOp(%d)", int(op))
	}
}

// OutOp enumerates the output-alignment steps of Algorithm 1.
type OutOp int

const (
	// OutScan emits join output as-is: valid when J conforms to τ and the
	// join produced ordered chunks (or τ is unordered).
	OutScan OutOp = iota
	// OutSort sorts the output chunks in place: valid when J's chunks are
	// τ's chunks but arrive unordered. Cost n·log(n/c).
	OutSort
	// OutRedim reorganizes the output into τ. Cost n + n·log(n/c).
	OutRedim
)

func (op OutOp) String() string {
	switch op {
	case OutScan:
		return "scan"
	case OutSort:
		return "sort"
	case OutRedim:
		return "redim"
	default:
		return fmt.Sprintf("OutOp(%d)", int(op))
	}
}

// ArrayStats are the per-input statistics the cost model consumes: the
// occupied cell count and the stored chunk count.
type ArrayStats struct {
	Cells  int64
	Chunks int64
}

// PlanOptions tunes the enumeration.
type PlanOptions struct {
	// Selectivity estimates output cardinality as Selectivity·(nα+nβ)
	// (the convention of Section 6.1). Zero means 1.0. Output cardinality
	// estimation itself is out of the paper's scope; callers supply it.
	Selectivity float64
	// Nodes extends the single-node cost model to k nodes by dividing
	// parallelizable costs by k (Section 4). Zero means 1.
	Nodes int
}

// Plan is one candidate logical plan: an alignment operator per input, a
// join algorithm, and an output alignment step, with its modeled cost.
type Plan struct {
	Alpha, Beta AlignOp
	Algo        join.Algorithm
	Out         OutOp
	Units       shuffle.UnitKind
	NumUnits    int
	JS          *JoinSchema

	AlignCost, CompareCost, OutCost float64
	Cost                            float64
}

// Describe renders the plan as an AFL expression, e.g.
// "redim(hashJoin(hash(A), hash(B)), C)".
func (p *Plan) Describe() string {
	src := p.JS.Pred
	side := func(op AlignOp, name string) string {
		if op == OpScan {
			return name
		}
		return fmt.Sprintf("%s(%s)", op, name)
	}
	algo := map[join.Algorithm]string{join.Hash: "hashJoin", join.Merge: "mergeJoin", join.NestedLoop: "nestedLoopJoin"}[p.Algo]
	inner := fmt.Sprintf("%s(%s, %s)", algo, side(p.Alpha, src.Left.Name), side(p.Beta, src.Right.Name))
	switch p.Out {
	case OutSort:
		return fmt.Sprintf("sort(%s)", inner)
	case OutRedim:
		return fmt.Sprintf("redim(%s, %s)", inner, src.Out.Name)
	default:
		return inner
	}
}

// Enumerate runs the dynamic-programming enumeration of Algorithm 1:
// every (α-align, β-align, joinAlgo, out-align) combination is validated
// and costed; the returned slice is sorted cheapest first. An error is
// returned only if no valid plan exists.
func Enumerate(js *JoinSchema, sa, sb ArrayStats, opt PlanOptions) ([]Plan, error) {
	if opt.Selectivity <= 0 {
		opt.Selectivity = 1
	}
	if opt.Nodes <= 0 {
		opt.Nodes = 1
	}

	aligns := []AlignOp{OpScan, OpRedim, OpRechunk, OpHash}
	algos := []join.Algorithm{join.Hash, join.Merge, join.NestedLoop}
	outs := []OutOp{OutScan, OutSort, OutRedim}

	var plans []Plan
	for _, aa := range aligns {
		for _, ba := range aligns {
			for _, algo := range algos {
				for _, oa := range outs {
					p := Plan{Alpha: aa, Beta: ba, Algo: algo, Out: oa, JS: js}
					if !validate(&p) {
						continue
					}
					costPlan(&p, sa, sb, opt)
					plans = append(plans, p)
				}
			}
		}
	}
	if len(plans) == 0 {
		return nil, fmt.Errorf("logical: no valid plan for %s ⋈ %s on %s",
			js.Pred.Left.Name, js.Pred.Right.Name, js.Pred.Resolved.Pred)
	}
	sort.SliceStable(plans, func(i, j int) bool { return plans[i].Cost < plans[j].Cost })
	return plans, nil
}

// validate implements the plan validator of Algorithm 1. It also assigns
// the plan's join-unit kind.
func validate(p *Plan) bool {
	js := p.JS
	// Join units must be consistent across sides: hash buckets on both, or
	// chunks on both.
	aHash, bHash := p.Alpha == OpHash, p.Beta == OpHash
	if aHash != bHash {
		return false
	}
	if aHash {
		p.Units = shuffle.HashUnits
	} else {
		p.Units = shuffle.ChunkUnits
		if len(js.Dims) == 0 {
			return false // no rangeable join dimension: chunks unavailable
		}
	}

	// A scan is only an aligner when the input already conforms to J.
	if p.Alpha == OpScan && !js.LeftConforms() {
		return false
	}
	if p.Beta == OpScan && !js.RightConforms() {
		return false
	}

	// Merge join requires sorted chunks on both inputs: scan (stored
	// arrays are C-order sorted) or redim (which sorts). Rechunk and hash
	// leave their output unordered.
	if p.Algo == join.Merge {
		ordered := func(op AlignOp) bool { return op == OpScan || op == OpRedim }
		if !ordered(p.Alpha) || !ordered(p.Beta) {
			return false
		}
	}

	// Output alignment. An unordered destination (no dimensions) accepts
	// the join output as-is; sorting or redimensioning it is pointless.
	out := js.Pred.Out
	if len(out.Dims) == 0 {
		return p.Out == OutScan
	}
	joinOrdered := p.Algo == join.Merge // merge preserves its inputs' order
	switch p.Out {
	case OutScan:
		// Precludes a scan after hash/nested-loop joins when τ has
		// dimensions (their output is unordered), and requires J = τ.
		return joinOrdered && js.OutConforms()
	case OutSort:
		// Sorting in place only helps when the join units already are τ's
		// chunks but arrived unordered (e.g. hash join over rechunked
		// inputs, or any join over hash buckets that match τ's grid? No —
		// buckets are dimension-less, they cannot be τ chunks).
		return !joinOrdered && p.Units == shuffle.ChunkUnits && js.OutConforms()
	case OutRedim:
		// Full reorganization always reaches τ; skip it when a free scan
		// would do.
		return !(joinOrdered && js.OutConforms())
	}
	return false
}

// costPlan fills in the Table-1 cost terms. Costs are in abstract per-cell
// units; on k nodes the parallelizable work divides by k (Section 4).
func costPlan(p *Plan, sa, sb ArrayStats, opt PlanOptions) {
	k := float64(opt.Nodes)
	na, nb := float64(sa.Cells), float64(sb.Cells)
	ca, cb := float64(max64(sa.Chunks, 1)), float64(max64(sb.Chunks, 1))

	p.AlignCost = (alignCost(p.Alpha, na, ca) + alignCost(p.Beta, nb, cb)) / k

	switch p.Algo {
	case join.NestedLoop:
		p.CompareCost = na * nb / k
	default:
		p.CompareCost = (na + nb) / k
	}

	nOut := opt.Selectivity * (na + nb)
	cOut := float64(outChunkCount(p))
	switch p.Out {
	case OutSort:
		p.OutCost = nlogn(nOut, cOut) / k
	case OutRedim:
		p.OutCost = (nOut + nlogn(nOut, cOut)) / k
	}

	p.Cost = p.AlignCost + p.CompareCost + p.OutCost
	// A hash-bucket plan uses one bucket per join-schema chunk, or 1024
	// when the join schema has no dimensions.
	p.NumUnits = p.JS.NumChunkUnits()
	if p.Units == shuffle.HashUnits && p.NumUnits <= 0 {
		p.NumUnits = 1024
	}
}

func alignCost(op AlignOp, n, c float64) float64 {
	switch op {
	case OpScan:
		return 0
	case OpRedim:
		return n + nlogn(n, c)
	case OpRechunk, OpHash:
		return n
	}
	return math.Inf(1)
}

// nlogn is the sort cost n·log2(n/c): c chunks each sorting n/c cells.
func nlogn(n, c float64) float64 {
	if n <= 0 || c <= 0 || n <= c {
		return 0
	}
	return n * math.Log2(n/c)
}

// outChunkCount estimates the destination's stored chunk count, used as c
// in output sort costs.
func outChunkCount(p *Plan) int64 {
	out := p.JS.Pred.Out
	if len(out.Dims) > 0 {
		return max64(out.TotalChunks(), 1)
	}
	if n := p.JS.NumChunkUnits(); n > 0 {
		return int64(n)
	}
	return 1
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// UnitSpecFor materializes the shuffle unit specification and per-side
// slice functions (mappers) of a chosen plan, ready for slice mapping.
func UnitSpecFor(p *Plan) (*shuffle.UnitSpec, *shuffle.SideMapper, *shuffle.SideMapper) {
	js := p.JS
	spec := &shuffle.UnitSpec{Kind: p.Units}
	if p.Units == shuffle.ChunkUnits {
		spec.JoinDims = js.Dims
	} else {
		spec.NumUnits = p.NumUnits
	}
	left := &shuffle.SideMapper{
		KeyRefs: js.Pred.Resolved.Left,
		DimRefs: js.LeftDimRefs,
		Carry:   js.LeftCarry,
	}
	right := &shuffle.SideMapper{
		KeyRefs: js.Pred.Resolved.Right,
		DimRefs: js.RightDimRefs,
		Carry:   js.RightCarry,
	}
	return spec, left, right
}
