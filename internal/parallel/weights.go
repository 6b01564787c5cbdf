package parallel

// Layer is one layer of counted work in the cost model.
type Layer int

const (
	SerialPass Layer = iota // a live serial pass: its proposals and applied moves
	AsyncPass               // an asynchronous pass's proposals
	Rebuild                 // a blockmodel rebuild from an async pass's moves
	MDLPass                 // the MDL pass that ends each sweep
	MergeScan               // scoring the merge candidates of every block
	MergeApply              // sorting the merges and relabelling the blocks
	NumLayers
)

// String returns the layer's name as the weight fit prints it.
func (l Layer) String() string {
	return [NumLayers]string{"serial pass", "async pass", "rebuild", "MDL pass", "merge scan", "merge apply"}[l]
}

// Weights holds each layer's modelled cost in ns per unit of counted
// work. They were fit on a linux-amd64-c2 host (2 vCPUs, Go 1.24) from
// one-worker runs of every engine on five Table 1 graphs and the
// fourteen Table 2 stand-ins with
//
//	go run ./cmd/experiments -exp costfit
//
// which prints each layer's fitted weight beside the committed one, and
// the fit error: the RMS over runs of the relative gap between the
// modelled and the measured time. Each weight is the median of three
// fits in a row; a fourth, later fit put every weight 12–21% higher, as
// the host's speed drifts. At these weights the error was 0.23 (serial
// pass), 0.22 (async pass), 0.54 (rebuild), 0.19 (MDL pass), 0.30
// (merge scan) and 0.48 (merge apply), and 0.23 for a whole run. Tests
// read only these values.
var Weights = [NumLayers]float64{
	SerialPass: 5.264,
	AsyncPass:  4.597,
	Rebuild:    8.294,
	MDLPass:    0.925,
	MergeScan:  6.214,
	MergeApply: 10.74,
}
