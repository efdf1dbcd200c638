// Package canon provides deterministic canonical encodings of Go values.
//
// Canonical encodings serve as state fingerprints throughout simsym: two
// values have the same encoding if and only if they are structurally equal
// under the rules below. The encoding is used to compare processor states
// (Theorem 2's "same state at the same time"), to key model-checker visited
// sets, and to encode the unordered multisets held by Q-variables.
//
// Supported value shapes:
//
//   - nil
//   - bool, all integer kinds, string
//   - []T (ordered sequence)
//   - map[K]V (encoded with keys sorted by their own canonical encoding)
//   - Multiset (unordered collection, encoded sorted)
//   - any type implementing Canonical
//
// Floats are deliberately unsupported: the paper's state spaces are
// discrete, and float NaN semantics would break the equality contract.
package canon

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// Canonical is implemented by types that define their own canonical form.
type Canonical interface {
	// CanonicalString returns a deterministic encoding of the value.
	// Two values must return the same string iff they are equal.
	CanonicalString() string
}

// Multiset is an unordered collection of values. Its canonical encoding
// sorts the element encodings, so element order never matters. It models
// the subvalue multisets returned by the Q instruction set's peek.
type Multiset []any

var _ Canonical = Multiset(nil)

// CanonicalString implements Canonical.
func (m Multiset) CanonicalString() string {
	elems := make([]string, len(m))
	for i, e := range m {
		elems[i] = String(e)
	}
	sort.Strings(elems)
	var b strings.Builder
	b.WriteString("ms{")
	for i, e := range elems {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(e)
	}
	b.WriteByte('}')
	return b.String()
}

// String returns the canonical encoding of v.
//
// Encodings are self-delimiting and type-tagged, so values of different
// dynamic types never collide (e.g. int(1) encodes as "i:1" while the
// string "1" encodes as `s:1:"1"`).
func String(v any) string {
	var b strings.Builder
	encode(&b, v)
	return b.String()
}

// Equal reports whether a and b have identical canonical encodings.
func Equal(a, b any) bool { return String(a) == String(b) }

func encode(b *strings.Builder, v any) {
	if v == nil {
		b.WriteString("nil")
		return
	}
	if c, ok := v.(Canonical); ok {
		b.WriteString("c{")
		b.WriteString(c.CanonicalString())
		b.WriteByte('}')
		return
	}
	switch x := v.(type) {
	case bool:
		if x {
			b.WriteString("b:1")
		} else {
			b.WriteString("b:0")
		}
		return
	case int:
		encodeInt(b, int64(x))
		return
	case int8:
		encodeInt(b, int64(x))
		return
	case int16:
		encodeInt(b, int64(x))
		return
	case int32:
		encodeInt(b, int64(x))
		return
	case int64:
		encodeInt(b, x)
		return
	case uint:
		encodeUint(b, uint64(x))
		return
	case uint8:
		encodeUint(b, uint64(x))
		return
	case uint16:
		encodeUint(b, uint64(x))
		return
	case uint32:
		encodeUint(b, uint64(x))
		return
	case uint64:
		encodeUint(b, x)
		return
	case string:
		encodeString(b, x)
		return
	case []any:
		b.WriteString("l[")
		for i, e := range x {
			if i > 0 {
				b.WriteByte(',')
			}
			encode(b, e)
		}
		b.WriteByte(']')
		return
	case []string:
		b.WriteString("l[")
		for i, e := range x {
			if i > 0 {
				b.WriteByte(',')
			}
			encodeString(b, e)
		}
		b.WriteByte(']')
		return
	case []int:
		b.WriteString("l[")
		for i, e := range x {
			if i > 0 {
				b.WriteByte(',')
			}
			encodeInt(b, int64(e))
		}
		b.WriteByte(']')
		return
	case map[string]any:
		encodeMapReflect(b, reflect.ValueOf(x))
		return
	case map[string]string:
		encodeMapReflect(b, reflect.ValueOf(x))
		return
	case map[string]bool:
		encodeMapReflect(b, reflect.ValueOf(x))
		return
	case map[string]int:
		encodeMapReflect(b, reflect.ValueOf(x))
		return
	}
	encodeReflect(b, reflect.ValueOf(v))
}

func encodeInt(b *strings.Builder, x int64) {
	b.WriteString("i:")
	b.WriteString(strconv.FormatInt(x, 10))
}

func encodeUint(b *strings.Builder, x uint64) {
	b.WriteString("u:")
	b.WriteString(strconv.FormatUint(x, 10))
}

func encodeString(b *strings.Builder, s string) {
	// Length-prefixed so embedded delimiters cannot cause collisions.
	b.WriteString("s:")
	b.WriteString(strconv.Itoa(len(s)))
	b.WriteByte(':')
	b.WriteString(s)
}

func encodeReflect(b *strings.Builder, rv reflect.Value) {
	switch rv.Kind() {
	case reflect.Pointer, reflect.Interface:
		if rv.IsNil() {
			b.WriteString("nil")
			return
		}
		encode(b, rv.Elem().Interface())
	case reflect.Slice, reflect.Array:
		b.WriteString("l[")
		for i := 0; i < rv.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			encode(b, rv.Index(i).Interface())
		}
		b.WriteByte(']')
	case reflect.Map:
		encodeMapReflect(b, rv)
	case reflect.Struct:
		// Tag with the package path so same-named struct types from
		// different packages cannot collide.
		b.WriteString("t:")
		b.WriteString(rv.Type().PkgPath())
		b.WriteByte('.')
		b.WriteString(rv.Type().Name())
		b.WriteByte('{')
		emitted := 0
		for i := 0; i < rv.NumField(); i++ {
			if !rv.Type().Field(i).IsExported() {
				continue
			}
			if emitted > 0 {
				b.WriteByte(',')
			}
			emitted++
			b.WriteString(rv.Type().Field(i).Name)
			b.WriteByte('=')
			encode(b, rv.Field(i).Interface())
		}
		b.WriteByte('}')
	case reflect.Bool:
		if rv.Bool() {
			b.WriteString("b:1")
		} else {
			b.WriteString("b:0")
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		encodeInt(b, rv.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		encodeUint(b, rv.Uint())
	case reflect.String:
		encodeString(b, rv.String())
	default:
		// Unsupported kinds (floats, chans, funcs) get a poisoned tag so
		// that accidental use is loudly visible in fingerprints rather
		// than silently colliding.
		fmt.Fprintf(b, "!unsupported:%s", rv.Kind())
	}
}

func encodeMapReflect(b *strings.Builder, rv reflect.Value) {
	type kv struct{ k, v string }
	pairs := make([]kv, 0, rv.Len())
	iter := rv.MapRange()
	for iter.Next() {
		pairs = append(pairs, kv{
			k: String(iter.Key().Interface()),
			v: String(iter.Value().Interface()),
		})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].k != pairs[j].k {
			return pairs[i].k < pairs[j].k
		}
		return pairs[i].v < pairs[j].v
	})
	b.WriteString("m{")
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteByte('>')
		b.WriteString(p.v)
	}
	b.WriteByte('}')
}

// Hash returns a 64-bit FNV-1a hash of the canonical encoding of v.
// It is a convenience for map keys where the full encoding is too large;
// callers that need collision-freedom should key on String instead.
func Hash(v any) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	s := String(v)
	var h uint64 = offset64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// AppendLenPrefixed appends a length-prefixed copy of s to buf and
// returns the extended slice. The uvarint length prefix makes the
// concatenation of several components self-delimiting, so distinct
// component sequences can never alias — the binary companion of the
// encodeString length prefix. It is the building block of the model
// checker's compact state keys (machine.AppendStateKey).
func AppendLenPrefixed(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// HashBytes returns the 64-bit FNV-1a hash of b. It is the byte-slice
// companion of Hash/HashTokens: the model checker's component table
// keys its buckets on it and confirms hits by comparing the exact
// windows, so hash quality affects only speed, never correctness.
func HashBytes(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= prime64
	}
	return h
}

// HashTokens returns a 64-bit hash of a token stream of words. Each step
// folds one whole token in (rotate, xor, multiply, as in FxHash) and a
// final avalanche (Mix64) spreads every input bit into every output
// bit, which open-addressed tables index by. It is the token-stream
// companion of Hash: the partition package's SigTable probes on it over
// uint64 signatures and the model checker's step memo over (processor,
// frame id, variable id) keys, and both resolve collisions by comparing
// the tokens themselves, so hash quality affects only speed, never
// correctness.
func HashTokens[T uint32 | uint64](tokens []T) uint64 {
	h := uint64(len(tokens))
	for _, t := range tokens {
		h = (bits.RotateLeft64(h, 5) ^ uint64(t)) * 0x517cc1b727220a95
	}
	return Mix64(h)
}

// Mix64 is MurmurHash3's fmix64 avalanche: a bijection on 64-bit words
// under which each input bit flips each output bit with probability
// about one half.
func Mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}
