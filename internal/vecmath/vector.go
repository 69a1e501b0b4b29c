// Package vecmath implements the sparse vector representation and similarity
// arithmetic underlying the VSJ (vector similarity join) problem: vectors are
// sorted lists of (dimension, weight) pairs, similarity is cosine, and all
// estimators in lshjoin operate on these values.
//
// Vectors are immutable once built; the package validates sortedness and
// finiteness at construction so downstream code can assume both.
package vecmath

import (
	"fmt"
	"math"
	"sort"
)

// Entry is one non-zero coordinate of a sparse vector.
type Entry struct {
	Dim    uint32  // dimension index
	Weight float32 // non-zero weight
}

// Vector is a sparse real-valued vector: entries sorted by Dim, weights
// non-zero and finite. The zero Vector is the zero vector (no entries).
type Vector struct {
	entries []Entry
	norm    float64 // cached Euclidean norm
}

// New builds a Vector from entries. Entries may be in any order and may
// contain duplicate dimensions (weights on the same dimension are summed);
// zero-weight results are dropped. It returns an error for non-finite
// weights.
func New(entries []Entry) (Vector, error) {
	es := make([]Entry, len(entries))
	copy(es, entries)
	sort.Slice(es, func(i, j int) bool { return es[i].Dim < es[j].Dim })
	out := es[:0]
	for i := 0; i < len(es); {
		d := es[i].Dim
		var w float64
		for ; i < len(es) && es[i].Dim == d; i++ {
			w += float64(es[i].Weight)
		}
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return Vector{}, fmt.Errorf("vecmath: non-finite weight on dim %d", d)
		}
		if w != 0 {
			out = append(out, Entry{Dim: d, Weight: float32(w)})
		}
	}
	v := Vector{entries: out}
	v.norm = v.computeNorm()
	return v, nil
}

// FromSorted builds a Vector from entries already in canonical form —
// strictly ascending dims, finite non-zero weights — taking ownership of
// the slice instead of copying it. It reports false, building nothing, when
// the entries are not canonical; New accepts any entries. The result equals
// New(entries) bit for bit.
func FromSorted(entries []Entry) (Vector, bool) {
	for i, e := range entries {
		w := float64(e.Weight)
		if w == 0 || math.IsNaN(w) || math.IsInf(w, 0) || i > 0 && e.Dim <= entries[i-1].Dim {
			return Vector{}, false
		}
	}
	v := Vector{entries: entries}
	v.norm = v.computeNorm()
	return v, true
}

// FromMap builds a Vector from a dimension→weight map.
func FromMap(m map[uint32]float32) (Vector, error) {
	es := make([]Entry, 0, len(m))
	for d, w := range m {
		es = append(es, Entry{Dim: d, Weight: w})
	}
	return New(es)
}

// FromDims builds a binary vector with weight 1 on each distinct dimension.
// Duplicate dims collapse to a single weight-1 entry (set semantics), which
// matches the paper's treatment of the DBLP data as binary vectors.
func FromDims(dims []uint32) Vector {
	ds := make([]uint32, len(dims))
	copy(ds, dims)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	es := make([]Entry, 0, len(ds))
	var last uint32
	for i, d := range ds {
		if i > 0 && d == last {
			continue
		}
		es = append(es, Entry{Dim: d, Weight: 1})
		last = d
	}
	v := Vector{entries: es}
	v.norm = math.Sqrt(float64(len(es)))
	return v
}

// mustNew is a test/generator helper: panics on error.
func mustNew(entries []Entry) Vector {
	v, err := New(entries)
	if err != nil {
		panic(err)
	}
	return v
}

// NNZ returns the number of non-zero entries.
func (v Vector) NNZ() int { return len(v.entries) }

// Entries returns the underlying sorted entries. Callers must not modify the
// returned slice.
func (v Vector) Entries() []Entry { return v.entries }

// Norm returns the Euclidean norm ‖v‖.
func (v Vector) Norm() float64 { return v.norm }

// IsZero reports whether v has no non-zero entries.
func (v Vector) IsZero() bool { return len(v.entries) == 0 }

// MaxDim returns the largest dimension index plus one (a safe dense size),
// or 0 for the zero vector.
func (v Vector) MaxDim() uint32 {
	if len(v.entries) == 0 {
		return 0
	}
	return v.entries[len(v.entries)-1].Dim + 1
}

// Weight returns the weight on dimension d (0 if absent).
func (v Vector) Weight(d uint32) float32 {
	i := sort.Search(len(v.entries), func(i int) bool { return v.entries[i].Dim >= d })
	if i < len(v.entries) && v.entries[i].Dim == d {
		return v.entries[i].Weight
	}
	return 0
}

func (v Vector) computeNorm() float64 {
	var s float64
	for _, e := range v.entries {
		s += float64(e.Weight) * float64(e.Weight)
	}
	return math.Sqrt(s)
}

// String renders a compact debug form like "{3:0.5 17:1.2}".
func (v Vector) String() string {
	s := "{"
	for i, e := range v.entries {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d:%g", e.Dim, e.Weight)
	}
	return s + "}"
}

// Dot returns the inner product u·v via a sorted-merge over the two entry
// lists (O(nnz(u)+nnz(v)), or galloping when one side is much shorter).
func Dot(u, v Vector) float64 {
	a, b := u.entries, v.entries
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	// Gallop when the short side is much smaller than the long side.
	if len(b) > 8*len(a) {
		return dotGallop(a, b)
	}
	var s float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Dim < b[j].Dim:
			i++
		case a[i].Dim > b[j].Dim:
			j++
		default:
			s += float64(a[i].Weight) * float64(b[j].Weight)
			i++
			j++
		}
	}
	return s
}

func dotGallop(short, long []Entry) float64 {
	var s float64
	lo := 0
	for _, e := range short {
		// Exponential probe then binary search within [lo, hi].
		hi := lo + 1
		for hi < len(long) && long[hi].Dim < e.Dim {
			lo = hi
			hi = min(2*hi, len(long))
		}
		i := lo + sort.Search(min(hi, len(long))-lo, func(k int) bool { return long[lo+k].Dim >= e.Dim })
		if i < len(long) && long[i].Dim == e.Dim {
			s += float64(e.Weight) * float64(long[i].Weight)
		}
		lo = i
		if lo >= len(long) {
			break
		}
	}
	return s
}

// Cosine returns cos(u, v) = u·v / (‖u‖·‖v‖), clamped to [-1, 1] to absorb
// floating point drift. Values within 1e-9 of 1 snap to exactly 1 so that
// duplicate vectors compare as similarity 1.0 regardless of summation order
// (join thresholds of τ = 1.0 rely on this). The cosine with a zero vector
// is defined as 0.
func Cosine(u, v Vector) float64 {
	if u.norm == 0 || v.norm == 0 {
		return 0
	}
	c := Dot(u, v) / (u.norm * v.norm)
	if c > 1-1e-9 {
		return 1
	}
	if c < -1 {
		return -1
	}
	return c
}

// Normalized returns v scaled to unit norm. The zero vector normalizes to
// itself.
func (v Vector) Normalized() Vector {
	if v.norm == 0 || v.norm == 1 {
		return v
	}
	inv := 1 / v.norm
	es := make([]Entry, len(v.entries))
	for i, e := range v.entries {
		es[i] = Entry{Dim: e.Dim, Weight: float32(float64(e.Weight) * inv)}
	}
	out := Vector{entries: es}
	out.norm = out.computeNorm()
	return out
}

// Scale returns v multiplied by c.
func (v Vector) Scale(c float64) Vector {
	if c == 1 {
		return v
	}
	es := make([]Entry, 0, len(v.entries))
	for _, e := range v.entries {
		w := float64(e.Weight) * c
		if w != 0 {
			es = append(es, Entry{Dim: e.Dim, Weight: float32(w)})
		}
	}
	out := Vector{entries: es}
	out.norm = out.computeNorm()
	return out
}

// Add returns u + v.
func Add(u, v Vector) Vector {
	es := make([]Entry, 0, len(u.entries)+len(v.entries))
	i, j := 0, 0
	a, b := u.entries, v.entries
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i].Dim < b[j].Dim):
			es = append(es, a[i])
			i++
		case i >= len(a) || b[j].Dim < a[i].Dim:
			es = append(es, b[j])
			j++
		default:
			w := float64(a[i].Weight) + float64(b[j].Weight)
			if w != 0 {
				es = append(es, Entry{Dim: a[i].Dim, Weight: float32(w)})
			}
			i++
			j++
		}
	}
	out := Vector{entries: es}
	out.norm = out.computeNorm()
	return out
}

// Jaccard returns the Jaccard similarity |A∩B|/|A∪B| of the *supports* of u
// and v (weights ignored), the similarity measure of the SSJ problem.
func Jaccard(u, v Vector) float64 {
	a, b := u.entries, v.entries
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Dim < b[j].Dim:
			i++
		case a[i].Dim > b[j].Dim:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// Overlap returns |support(u) ∩ support(v)|.
func Overlap(u, v Vector) int {
	a, b := u.entries, v.entries
	inter := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Dim < b[j].Dim:
			i++
		case a[i].Dim > b[j].Dim:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	return inter
}

// Equal reports exact equality of entries.
func Equal(u, v Vector) bool {
	if len(u.entries) != len(v.entries) {
		return false
	}
	for i := range u.entries {
		if u.entries[i] != v.entries[i] {
			return false
		}
	}
	return true
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
