package partition

import (
	"reflect"
	"testing"
)

// dfaFromBytes decodes an arbitrary byte string into a small DFA over a
// two-symbol alphabet: byte 0 sizes the machine, then each state reads
// three bytes (accept bit, two successor indices mod n). Every input
// decodes to a valid structure so the fuzzer explores shapes, not
// parser rejections.
func dfaFromBytes(data []byte) *dfa {
	if len(data) == 0 {
		data = []byte{0}
	}
	n := 2 + int(data[0])%62
	data = data[1:]
	at := func(i int) byte {
		if len(data) == 0 {
			return 0
		}
		return data[i%len(data)]
	}
	accept := make([]bool, n)
	next := make([][]int, n)
	for s := 0; s < n; s++ {
		accept[s] = at(3*s)&1 == 1
		next[s] = []int{int(at(3*s+1)) % n, int(at(3*s+2)) % n}
	}
	return newDFA(accept, next)
}

// FuzzInternedSignatures cross-checks the interned token signature
// paths against the naive refinement oracle on fuzzer-shaped DFAs: the
// worklist driver and FixpointHopcroft must give FixpointNaive's
// relation. One refiner is also reused over the input's DFA, a smaller
// one decoded from its second half and the first again, and each run
// must give the fresh FixpointHopcroft's class ids and RoundHook stream.
func FuzzInternedSignatures(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 1, 0, 1, 0, 2, 2, 1, 1, 0})
	f.Add([]byte{61, 0xff, 0x00, 0xaa, 0x55, 7, 9, 11, 13})
	f.Add([]byte("partition refinement is dfa minimization"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := dfaFromBytes(data)
		tok, err := FixpointWorklist(d, nil)
		if err != nil {
			t.Fatalf("token path: %v", err)
		}
		oracle, err := FixpointNaive(d)
		if err != nil {
			t.Fatalf("naive oracle: %v", err)
		}
		if !SameRelation(tok, oracle) {
			t.Fatalf("interned relation %v differs from naive oracle %v (n=%d)",
				tok.Labels(), oracle.Labels(), d.Len())
		}
		hop, err := FixpointHopcroft(d, nil)
		if err != nil {
			t.Fatalf("hopcroft: %v", err)
		}
		if !SameRelation(hop, oracle) {
			t.Fatalf("hopcroft relation %v differs from naive oracle %v (n=%d)",
				hop.Labels(), oracle.Labels(), d.Len())
		}
		var r refiner
		for k, dd := range []*dfa{d, dfaFromBytes(data[len(data)/2:]), d} {
			fresh := runHopcroft(FixpointHopcroft, dd)
			if reused := runHopcroft(r.refine, dd); !reflect.DeepEqual(reused, fresh) {
				t.Fatalf("run %d (n=%d): reused refiner gave %+v, fresh %+v", k, dd.Len(), reused, fresh)
			}
		}
	})
}
