package perfmodel

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Regression is a fitted ordinary-least-squares linear model
// y = b0 + b1·x1 + ... + bk·xk, the statistical-model family the paper
// uses for streaming-throughput prediction [73].
type Regression struct {
	// Names labels the features, for readable model dumps.
	Names []string
	// Coef holds [b0, b1, ..., bk] (intercept first).
	Coef []float64
}

// ErrSingular is returned when the normal equations are not solvable
// (collinear features or too few observations).
var ErrSingular = errors.New("perfmodel: singular design matrix")

// FitOLS fits a linear model with intercept by solving the normal
// equations (XᵀX)b = Xᵀy via Gaussian elimination with partial pivoting.
// x rows are observations, columns features; names may be nil.
func FitOLS(x [][]float64, y []float64, names []string) (*Regression, error) {
	n := len(x)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("perfmodel: need matching observations, got %d x %d y", n, len(y))
	}
	k := len(x[0])
	for i, row := range x {
		if len(row) != k {
			return nil, fmt.Errorf("perfmodel: ragged row %d", i)
		}
	}
	if n < k+1 {
		return nil, fmt.Errorf("perfmodel: %d observations cannot fit %d coefficients", n, k+1)
	}
	d := k + 1 // intercept column
	// Build XᵀX and Xᵀy with the implicit leading 1-column.
	xtx := make([][]float64, d)
	for i := range xtx {
		xtx[i] = make([]float64, d)
	}
	xty := make([]float64, d)
	feature := func(row []float64, j int) float64 {
		if j == 0 {
			return 1
		}
		return row[j-1]
	}
	for r := 0; r < n; r++ {
		for i := 0; i < d; i++ {
			fi := feature(x[r], i)
			xty[i] += fi * y[r]
			for j := 0; j < d; j++ {
				xtx[i][j] += fi * feature(x[r], j)
			}
		}
	}
	coef, err := solve(xtx, xty)
	if err != nil {
		return nil, err
	}
	if names == nil {
		names = make([]string, k)
		for i := range names {
			names[i] = fmt.Sprintf("x%d", i+1)
		}
	}
	return &Regression{Names: names, Coef: coef}, nil
}

// solve performs Gaussian elimination with partial pivoting on a (copy of
// a) square system.
func solve(a [][]float64, b []float64) ([]float64, error) {
	d := len(a)
	m := make([][]float64, d)
	for i := range m {
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for col := 0; col < d; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < d; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return nil, ErrSingular
		}
		m[col], m[pivot] = m[pivot], m[col]
		// Eliminate below.
		for r := col + 1; r < d; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c <= d; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	// Back-substitute.
	out := make([]float64, d)
	for r := d - 1; r >= 0; r-- {
		sum := m[r][d]
		for c := r + 1; c < d; c++ {
			sum -= m[r][c] * out[c]
		}
		out[r] = sum / m[r][r]
	}
	return out, nil
}

// Predict evaluates the model at a feature vector.
func (r *Regression) Predict(x []float64) float64 {
	y := r.Coef[0]
	for i, v := range x {
		if i+1 < len(r.Coef) {
			y += r.Coef[i+1] * v
		}
	}
	return y
}

// R2 returns the coefficient of determination on a dataset.
func (r *Regression) R2(x [][]float64, y []float64) float64 {
	if len(y) == 0 {
		return 0
	}
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	var ssRes, ssTot float64
	for i, row := range x {
		d := y[i] - r.Predict(row)
		ssRes += d * d
		t := y[i] - mean
		ssTot += t * t
	}
	if ssTot == 0 {
		return 1
	}
	return 1 - ssRes/ssTot
}

// String renders the fitted equation.
func (r *Regression) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "y = %.4g", r.Coef[0])
	for i, name := range r.Names {
		if i+1 >= len(r.Coef) {
			break
		}
		fmt.Fprintf(&b, " + %.4g·%s", r.Coef[i+1], name)
	}
	return b.String()
}
