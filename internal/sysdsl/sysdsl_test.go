package sysdsl

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"simsym/internal/system"
)

const diningSrc = `
# two philosophers sharing forks both ways
names left right
var fork0 init=0
var fork1
proc phil0 init=think left=fork0 right=fork1
proc phil1 init=think left=fork1 right=fork0
`

func TestParseBasic(t *testing.T) {
	s, err := Parse(diningSrc)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumProcs() != 2 || s.NumVars() != 2 {
		t.Fatalf("size = (%d,%d)", s.NumProcs(), s.NumVars())
	}
	if s.ProcInit[0] != "think" {
		t.Errorf("init = %q", s.ProcInit[0])
	}
	if s.VarInit[1] != "0" {
		t.Errorf("default var init = %q", s.VarInit[1])
	}
	v, err := s.NNbr(0, "right")
	if err != nil {
		t.Fatal(err)
	}
	if s.VarIDs[v] != "fork1" {
		t.Errorf("phil0's right = %s", s.VarIDs[v])
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 50; trial++ {
		s, err := system.RandomSystem(rng, system.RandomOpts{
			Procs:      1 + rng.Intn(6),
			Vars:       1 + rng.Intn(5),
			Names:      1 + rng.Intn(3),
			InitStates: 1 + rng.Intn(3),
		})
		if err != nil {
			continue
		}
		text := Serialize(s)
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("trial %d: parse(serialize) failed: %v\n%s", trial, err, text)
		}
		if back.Describe() != s.Describe() {
			t.Fatalf("trial %d: round trip changed the system:\n%s\nvs\n%s",
				trial, s.Describe(), back.Describe())
		}
	}
}

func TestGenerators(t *testing.T) {
	tests := []struct {
		src       string
		procs     int
		wantError bool
	}{
		{"gen ring 5", 5, false},
		{"gen dining 5", 5, false},
		{"gen dining-flipped 6", 6, false},
		{"gen star 3", 3, false},
		{"gen ring 65536", 65536, false},
		{"gen fig1", 2, false},
		{"gen fig2", 3, false},
		{"gen fig3", 3, false},
		{"gen q-over-s", 3, false},
		{"gen nosuch 3", 0, true},
		{"gen ring x", 0, true},
		{"gen", 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.src, func(t *testing.T) {
			s, err := Parse(tt.src)
			if tt.wantError {
				if err == nil {
					t.Error("expected error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if s.NumProcs() != tt.procs {
				t.Errorf("procs = %d, want %d", s.NumProcs(), tt.procs)
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want error
	}{
		{"no names", "var v\nproc p n=v", ErrIncomplete},
		{"no procs", "names n\nvar v", ErrIncomplete},
		{"missing binding", "names a b\nvar v\nproc p a=v", ErrIncomplete},
		{"unknown var", "names a\nproc p a=ghost", ErrUnknown},
		{"unknown name bound", "names a\nvar v\nproc p a=v b=v", ErrUnknown},
		{"dup var", "names a\nvar v\nvar v\nproc p a=v", ErrSyntax},
		{"dup proc", "names a\nvar v\nproc p a=v\nproc p a=v", ErrSyntax},
		{"dup names line", "names a\nnames b\nvar v\nproc p a=v", ErrSyntax},
		{"bad keyword", "wibble", ErrSyntax},
		{"bad var attr", "names a\nvar v color=red\nproc p a=v", ErrSyntax},
		{"bad proc attr", "names a\nvar v\nproc p a", ErrSyntax},
		{"dup binding", "names a\nvar v\nproc p a=v a=v", ErrSyntax},
		{"empty names", "names", ErrSyntax},
		{"var without id", "names a\nvar", ErrSyntax},
		{"proc without id", "names a\nvar v\nproc", ErrSyntax},
		{"ring past the bound", "gen ring 9223372036854775807", ErrTooLarge},
		{"tree one past the bound", "gen tree 65537", ErrTooLarge},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse(tt.src); !errors.Is(err, tt.want) {
				t.Errorf("err = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	src := "# header\n\nnames n # trailing\n\nvar v # v\nproc p n=v\n# footer\n"
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumProcs() != 1 {
		t.Errorf("procs = %d", s.NumProcs())
	}
}

func TestDOT(t *testing.T) {
	s := system.Fig2()
	dot := DOT(s, "fig2")
	for _, want := range []string{"graph \"fig2\"", "p:p1", "v:v3", "label=\"m\"", "shape=box", "shape=ellipse"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Edge count: every (proc,name) pair appears once.
	if got := strings.Count(dot, " -- "); got != 6 {
		t.Errorf("edges = %d, want 6", got)
	}
}

// FuzzSysdslParse feeds Parse arbitrary text, as simsymd does with
// request bodies. No input may panic, and whatever parses must survive
// a Serialize round trip: Parse(Serialize(s)) succeeds and equals s.
func FuzzSysdslParse(f *testing.F) {
	for _, gen := range []string{"ring 5", "dining 5", "dining-flipped 6", "star 4", "tree 7", "fig1", "fig2", "fig3", "q-over-s"} {
		f.Add("gen " + gen)
	}
	f.Add(diningSrc)
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(src)
		if err != nil {
			return
		}
		text := Serialize(s)
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(Serialize(s)) failed: %v\n%s", err, text)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("round trip changed the system:\n%#v\nvs\n%#v", s, back)
		}
	})
}
