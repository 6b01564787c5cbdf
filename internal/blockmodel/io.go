package blockmodel

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteAssignment writes the community assignment as "vertex community"
// lines — the interchange format shared by the CLI tools, so a
// partition computed by one run can be reloaded, evaluated or resumed
// by another.
func WriteAssignment(w io.Writer, assignment []int32) error {
	bw := bufio.NewWriter(w)
	for v, c := range assignment {
		if _, err := fmt.Fprintf(bw, "%d\t%d\n", v, c); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadAssignment parses "vertex community" lines for a graph with n
// vertices. Every vertex must appear exactly once; community ids must
// be non-negative and fit in an int32, and are kept as given (use
// Compact after FromAssignment to densify).
func ReadAssignment(r io.Reader, n int) ([]int32, error) {
	out := make([]int32, n)
	seen := make([]bool, n)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("blockmodel: line %d: want 'vertex community', got %q", line, text)
		}
		v, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("blockmodel: line %d: bad vertex %q: %w", line, fields[0], err)
		}
		c, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("blockmodel: line %d: bad community %q: %w", line, fields[1], err)
		}
		if v < 0 || v >= n {
			return nil, fmt.Errorf("blockmodel: line %d: vertex %d outside [0,%d)", line, v, n)
		}
		if seen[v] {
			return nil, fmt.Errorf("blockmodel: line %d: vertex %d assigned twice", line, v)
		}
		if c < 0 {
			return nil, fmt.Errorf("blockmodel: line %d: negative community %d", line, c)
		}
		seen[v] = true
		out[v] = int32(c)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for v, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("blockmodel: vertex %d missing from assignment", v)
		}
	}
	return out, nil
}
