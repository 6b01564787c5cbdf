package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// ReadEdgeList parses a whitespace-separated edge list ("src dst" per
// line, 0- or 1-based as given; vertex ids are taken literally). Lines
// beginning with '#' or '%' are comments. The vertex count is
// max(id)+1 unless n > 0 is supplied.
func ReadEdgeList(r io.Reader, n int) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	maxID := -1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: expected at least 2 fields, got %q", line, text)
		}
		src, dst, err := parseEndpoints(fields)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", line, err)
		}
		maxID = max(maxID, int(src), int(dst))
		edges = append(edges, Edge{Src: src, Dst: dst})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scan: %w", err)
	}
	if n <= 0 {
		n = maxID + 1
	}
	return New(n, edges)
}

// parseEndpoints parses the "src dst" fields of an edge-list line.
// Vertex ids are int32, so an id beyond that range is an error rather
// than a wrapped value.
func parseEndpoints(fields []string) (src, dst int32, err error) {
	var ids [2]int32
	for k, name := range [2]string{"src", "dst"} {
		id, err := strconv.ParseInt(fields[k], 10, 32)
		if err != nil {
			return 0, 0, fmt.Errorf("bad %s %q: %w", name, fields[k], err)
		}
		if id < 0 {
			return 0, 0, fmt.Errorf("negative vertex id %d", id)
		}
		ids[k] = int32(id)
	}
	return ids[0], ids[1], nil
}

// WriteEdgeList writes the graph as "src dst" lines.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.OutNeighbors(v) {
			if _, err := fmt.Fprintf(bw, "%d\t%d\n", v, u); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadMatrixMarket parses a MatrixMarket coordinate file — the interchange
// format of the SuiteSparse Matrix Collection the paper draws its
// real-world graphs from. Supported headers: matrix coordinate
// {pattern|integer|real} general (directed) or symmetric (each entry
// mirrored). Entries are 1-based; values are ignored (the paper's graphs
// are unweighted). Self-loops are preserved.
func ReadMatrixMarket(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("graph: empty MatrixMarket input")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" || header[2] != "coordinate" {
		return nil, fmt.Errorf("graph: unsupported MatrixMarket header %q", sc.Text())
	}
	symmetric := false
	switch header[4] {
	case "general":
	case "symmetric":
		symmetric = true
	default:
		return nil, fmt.Errorf("graph: unsupported MatrixMarket symmetry %q", header[4])
	}
	// Skip comments; first non-comment line is "rows cols nnz".
	var rows, cols, nnz int
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '%' {
			continue
		}
		if _, err := fmt.Sscan(text, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("graph: bad MatrixMarket size line %q: %w", text, err)
		}
		if rows < 0 || cols < 0 || nnz < 0 || rows > math.MaxInt32 || cols > math.MaxInt32 {
			return nil, fmt.Errorf("graph: MatrixMarket size line %q out of range", text)
		}
		break
	}
	n := max(rows, cols)
	// nnz is only a claim until the entry lines are counted, so the
	// entries grow the slice as they are read.
	var edges []Edge
	entries := 0
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: bad MatrixMarket entry %q", text)
		}
		i, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: bad MatrixMarket row %q: %w", fields[0], err)
		}
		j, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: bad MatrixMarket col %q: %w", fields[1], err)
		}
		if i < 1 || i > n || j < 1 || j > n {
			return nil, fmt.Errorf("graph: MatrixMarket entry (%d,%d) out of range", i, j)
		}
		entries++
		edges = append(edges, Edge{Src: int32(i - 1), Dst: int32(j - 1)})
		if symmetric && i != j {
			edges = append(edges, Edge{Src: int32(j - 1), Dst: int32(i - 1)})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scan: %w", err)
	}
	if entries != nnz {
		return nil, fmt.Errorf("graph: MatrixMarket file has %d entries, its size line says %d", entries, nnz)
	}
	return New(n, edges)
}

// WriteMatrixMarket writes the graph as a general pattern coordinate file.
func WriteMatrixMarket(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "%%MatrixMarket matrix coordinate pattern general"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", g.NumVertices(), g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.OutNeighbors(v) {
			if _, err := fmt.Fprintf(bw, "%d %d\n", v+1, u+1); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// LoadFile loads a graph from path, dispatching on extension: ".mtx" is
// MatrixMarket, anything else is treated as an edge list.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(strings.ToLower(path), ".mtx") {
		return ReadMatrixMarket(f)
	}
	return ReadEdgeList(f, 0)
}
