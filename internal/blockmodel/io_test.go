package blockmodel

import (
	"bytes"
	"strings"
	"testing"
)

func TestAssignmentRoundTrip(t *testing.T) {
	g, assign := fixture(t)
	var buf bytes.Buffer
	if err := WriteAssignment(&buf, assign); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAssignment(&buf, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	for v := range assign {
		if got[v] != assign[v] {
			t.Fatalf("vertex %d: %d != %d", v, got[v], assign[v])
		}
	}
}

func TestReadAssignmentErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"missing vertex", "0 0\n1 0\n"},
		{"duplicate vertex", "0 0\n0 1\n1 0\n"},
		{"out of range", "0 0\n5 0\n1 0\n"},
		{"negative community", "0 -1\n1 0\n2 0\n"},
		{"bad fields", "0\n1 0\n2 0\n"},
		{"non-numeric", "a 0\n1 0\n2 0\n"},
		{"community past uint32", "0 0\n1 4294967296\n2 0\n"},
		{"community past int32", "0 0\n1 2147483648\n2 0\n"},
	}
	for _, tc := range cases {
		if _, err := ReadAssignment(strings.NewReader(tc.in), 3); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestReadAssignmentSkipsComments(t *testing.T) {
	in := "# header\n0 1\n\n1 1\n2 0\n"
	got, err := ReadAssignment(strings.NewReader(in), 3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[2] != 0 {
		t.Fatalf("got %v", got)
	}
}
