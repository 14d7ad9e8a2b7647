package netsim

import (
	"fmt"
	"math"
)

// DistMatrix holds all-pairs shortest-path per-unit transfer costs: the
// C(i,j) of the paper. It is symmetric with a zero diagonal.
type DistMatrix struct {
	n int
	// d is the flattened n×n matrix; d[i*n+j] = C(i,j).
	d []int64
}

// NewDistMatrix returns an n×n zero matrix.
func NewDistMatrix(n int) *DistMatrix {
	if n <= 0 {
		panic("netsim: distance matrix needs at least one site")
	}
	return &DistMatrix{n: n, d: make([]int64, n*n)}
}

// Sites returns the number of sites.
func (m *DistMatrix) Sites() int { return m.n }

// At returns C(i,j).
func (m *DistMatrix) At(i, j int) int64 { return m.d[i*m.n+j] }

// Row returns the i-th row as a read-only view. Callers must not modify it.
func (m *DistMatrix) Row(i int) []int64 { return m.d[i*m.n : (i+1)*m.n] }

// Set assigns both C(i,j) and C(j,i); the matrix stays symmetric by
// construction. Callers building matrices by hand should finish with
// Validate.
func (m *DistMatrix) Set(i, j int, v int64) {
	m.d[i*m.n+j] = v
	m.d[j*m.n+i] = v
}

// RowSum returns Σ_x C(i,x), used by the AGRA replica-benefit estimator.
func (m *DistMatrix) RowSum(i int) int64 {
	var sum int64
	for _, v := range m.Row(i) {
		sum += v
	}
	return sum
}

// MeanRowSum returns (Σ_l Σ_x C(l,x)) / M, the normaliser of the estimator's
// "proportional link weight" term.
func (m *DistMatrix) MeanRowSum() float64 {
	var total int64
	for _, v := range m.d {
		total += v
	}
	return float64(total) / float64(m.n)
}

// Validate checks symmetry, a zero diagonal and positive off-diagonal costs.
func (m *DistMatrix) Validate() error {
	for i := 0; i < m.n; i++ {
		if m.At(i, i) != 0 {
			return fmt.Errorf("netsim: non-zero diagonal at %d", i)
		}
		for j := i + 1; j < m.n; j++ {
			switch {
			case m.At(i, j) != m.At(j, i):
				return fmt.Errorf("netsim: asymmetric costs at (%d,%d)", i, j)
			case m.At(i, j) <= 0:
				return fmt.Errorf("netsim: non-positive cost at (%d,%d)", i, j)
			}
		}
	}
	return nil
}

// Distances computes the all-pairs shortest-path matrix of the topology
// by Floyd–Warshall. Returns errDisconnected if some pair is unreachable.
func (t *Topology) Distances() (*DistMatrix, error) {
	n := t.Sites
	const inf = math.MaxInt64 / 4
	m := NewDistMatrix(n)
	for i := range m.d {
		m.d[i] = inf
	}
	for i := 0; i < n; i++ {
		m.d[i*n+i] = 0
	}
	for _, l := range t.Links {
		if l.Cost < m.At(l.From, l.To) {
			m.Set(l.From, l.To, l.Cost)
		}
	}
	for k := 0; k < n; k++ {
		rowK := m.d[k*n : (k+1)*n]
		for i := 0; i < n; i++ {
			dik := m.d[i*n+k]
			if dik == inf {
				continue
			}
			rowI := m.d[i*n : (i+1)*n]
			for j, dkj := range rowK {
				if v := dik + dkj; v < rowI[j] {
					rowI[j] = v
				}
			}
		}
	}
	for _, v := range m.d {
		if v >= inf {
			return nil, errDisconnected
		}
	}
	return m, nil
}
