// Package lp solves the small-dimension, many-constraint linear programs at
// the heart of the paper's NN-cell construction:
//
//	maximize    c·x
//	subject to  a_i·x ≤ b_i   (i = 1..m)
//	            lo ≤ x ≤ hi   (the data-space box)
//
// Computing the MBR approximation of a Voronoi cell requires 2·d such LPs per
// data point (maximize +x_j and −x_j for every dimension j), where the a_i are
// bisector half-spaces — up to N−1 of them for the paper's "Correct"
// algorithm. The defining characteristic is d ≤ ~20 variables but potentially
// tens of thousands of constraints, so the package provides:
//
//   - Solver: a reusable dual revised simplex. The dual of an LP with d
//     variables and m constraints has a d×d basis regardless of m; each
//     iteration scans the m columns once (O(m·d)) and updates the basis
//     inverse B⁻¹ and the multipliers λ = B⁻¹c, π = w_B·B⁻¹ in product form
//     from the entering column (O(d²)). Every 2·d pivots, and again before
//     a solve may end (no entering column, or no leaving row), all three
//     are recomputed from the basis by a full O(d³) refactorization, and
//     the verdict is taken again on that fresh factorization. The returned
//     vertex is π of a fresh factorization, a function of the final basis
//     alone, so the updates change how fast a solve runs but not what it
//     returns for a given final basis. Because the data-space box rows are
//     always present, a dual-feasible starting basis exists in closed form
//     and no phase-1 is ever needed. A Solver validates and row-normalizes
//     the constraint set once (Load), then solves any number of objectives
//     over it (Solve) without heap allocation — exactly the access pattern
//     of the 2·d extent LPs of one cell, which share one constraint set.
//
//   - Maximize: the one-shot convenience wrapper over a throwaway Solver.
//
//   - MaximizeSeidel: Seidel's randomized incremental algorithm [Sei 90],
//     cited by the paper as the expected O(d!·n) bound for its LP step. It is
//     implemented independently of the simplex and serves as a cross-checking
//     oracle in tests (practical for small d).
//
// All solvers return the optimal vertex, the objective value, and the set of
// tight constraints.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Numerical tolerances. Inputs are expected to be normalized to roughly unit
// scale (the NN-cell pipeline works inside [0,1]^d and normalizes constraint
// rows); the solvers additionally rescale each row to unit infinity-norm.
const (
	tolPivot  = 1e-11 // smallest acceptable pivot magnitude
	tolRed    = 1e-9  // reduced-cost optimality tolerance
	tolRatio  = 1e-12 // ratio-test degeneracy tolerance
	maxPivots = 50000 // hard iteration cap (defensive; never hit in practice)
)

// Package-level error conditions.
var (
	// ErrInfeasible is returned when no point satisfies all constraints and
	// the box bounds simultaneously.
	ErrInfeasible = errors.New("lp: infeasible")
	// ErrNumeric is returned when the solver could not make progress within
	// its iteration budget, indicating severe degeneracy or bad scaling.
	ErrNumeric = errors.New("lp: numerical difficulty, iteration limit reached")
	// ErrNotLoaded is returned by Solver.Solve and Solver.SetBounds before a
	// successful Load.
	ErrNotLoaded = errors.New("lp: Solve before Load")
)

// Constraint is a single half-space a·x ≤ b.
type Constraint struct {
	A []float64
	B float64
}

// Problem is a linear program over box-bounded variables. The box is
// mandatory: it is what guarantees boundedness and gives the dual simplex its
// closed-form starting basis. Lo and Hi must satisfy Lo[i] <= Hi[i].
type Problem struct {
	NumVars int
	Cons    []Constraint
	Lo, Hi  []float64
}

// Validate checks structural consistency of the problem.
func (p *Problem) Validate() error {
	if p.NumVars <= 0 {
		return fmt.Errorf("lp: NumVars = %d, want > 0", p.NumVars)
	}
	if len(p.Lo) != p.NumVars || len(p.Hi) != p.NumVars {
		return fmt.Errorf("lp: bounds have length %d/%d, want %d", len(p.Lo), len(p.Hi), p.NumVars)
	}
	for i := range p.Lo {
		if !(p.Lo[i] <= p.Hi[i]) { // also catches NaN
			return fmt.Errorf("lp: bound %d inverted or NaN: [%v, %v]", i, p.Lo[i], p.Hi[i])
		}
	}
	for i, c := range p.Cons {
		if len(c.A) != p.NumVars {
			return fmt.Errorf("lp: constraint %d has %d coefficients, want %d", i, len(c.A), p.NumVars)
		}
	}
	return nil
}

// Result is the outcome of a successful solve.
type Result struct {
	// X is an optimal vertex.
	X []float64
	// Value is the objective value c·X.
	Value float64
	// Tight lists indices into Problem.Cons of the user constraints that are
	// binding at X according to the final basis. Box rows are not reported.
	Tight []int
	// Iterations is the number of simplex pivots (or Seidel base solves).
	Iterations int
}

// Maximize solves the problem with the dual revised simplex. It returns
// ErrInfeasible if the constraint set excludes the entire box. The returned
// Result is owned by the caller. Hot paths that solve many objectives over
// one constraint set should use a Solver directly.
func Maximize(p *Problem, c []float64) (*Result, error) {
	var s Solver
	if err := s.Load(p); err != nil {
		return nil, err
	}
	res, err := s.Solve(c)
	if err != nil {
		return nil, err
	}
	out := &Result{
		X:          append([]float64(nil), res.X...),
		Value:      res.Value,
		Tight:      append([]int(nil), res.Tight...),
		Iterations: res.Iterations,
	}
	return out, nil
}

// Solver is a reusable dual revised simplex. The zero value is ready for use:
//
//	var s lp.Solver
//	s.Load(problem)        // validate + row-normalize once
//	for each objective c:
//	    res, err := s.Solve(c)   // zero heap allocations when warm
//
// Load captures the constraint set; Solve runs one objective over it;
// SetBounds swaps the variable box without re-normalizing the constraints
// (the NN-cell decomposition solves the same bisector set over many slab
// boxes). All scratch state — the basis, its inverse, the row-normalized
// constraint matrix (one flat backing array) and the pricing buffers — lives
// in the Solver and is grown on demand, so a warm Solver allocates nothing.
//
// The Result returned by Solve aliases solver-owned buffers and is valid only
// until the next Solve or Load; callers that keep results must copy them
// (Maximize does). A Solver must not be used from multiple goroutines
// concurrently; build pipelines use one Solver per worker.
type Solver struct {
	d, m   int
	lo, hi []float64 // caller's box (not copied)

	// Dual constraint matrix. Column layout (d rows): columns 0..m-1 are the
	// user constraints, row-normalized to unit infinity norm; columns
	// m..m+d-1 are the box upper rows (+e_j), columns m+d..m+2d-1 the box
	// lower rows (−e_j). User columns are stored in one flat backing array,
	// column j at cons[j*d : (j+1)*d].
	cons []float64
	w    []float64 // dual objective: normalized b, then hi, then -lo

	c     []float64 // current primal objective (not copied; set per Solve)
	basis []int     // d column indices

	binv     [][]float64 // B⁻¹, d rows into binvFlat
	binvFlat []float64
	mat      [][]float64 // refactor scratch [B | I], d rows × 2d into matFlat
	matFlat  []float64

	lambda  []float64 // dual basic values B⁻¹ c
	pi      []float64 // simplex multipliers w_B B⁻¹
	u       []float64 // entering column in basis coordinates
	colbuf  []float64
	inBasis []bool

	x     []float64 // result vertex buffer
	tight []int     // result tight-set buffer
	res   Result
}

// Load validates p, row-normalizes its constraints into the solver's flat
// matrix, and sizes all scratch state. It may be called any number of times;
// buffers are reused across Loads whenever they are large enough.
func (s *Solver) Load(p *Problem) error {
	if err := p.Validate(); err != nil {
		return err
	}
	d, m := p.NumVars, len(p.Cons)
	s.sizeScratch(d, m)
	s.d, s.m = d, m
	s.lo, s.hi = p.Lo, p.Hi
	for j := range p.Cons {
		con := &p.Cons[j]
		col := s.cons[j*d : (j+1)*d]
		// Normalize each row to unit infinity norm for conditioning. A zero
		// row is either trivially satisfiable (b >= 0, kept as a zero column
		// that can never enter the basis) or infeasible.
		scale := 0.0
		for _, a := range con.A {
			if v := math.Abs(a); v > scale {
				scale = v
			}
		}
		b := con.B
		if scale > 0 {
			inv := 1 / scale
			for i, a := range con.A {
				col[i] = a * inv
			}
			b *= inv
		} else {
			for i := range col {
				col[i] = 0
			}
		}
		s.w[j] = b
	}
	s.loadBoxW()
	return nil
}

// SetBounds replaces the variable box of the loaded problem, keeping the
// normalized constraint matrix. This is the per-slab fast path of the NN-cell
// decomposition: O(d) instead of the O(m·d) of a full Load.
func (s *Solver) SetBounds(lo, hi []float64) error {
	if s.d == 0 {
		return ErrNotLoaded
	}
	if len(lo) != s.d || len(hi) != s.d {
		return fmt.Errorf("lp: bounds have length %d/%d, want %d", len(lo), len(hi), s.d)
	}
	for i := range lo {
		if !(lo[i] <= hi[i]) { // also catches NaN
			return fmt.Errorf("lp: bound %d inverted or NaN: [%v, %v]", i, lo[i], hi[i])
		}
	}
	s.lo, s.hi = lo, hi
	s.loadBoxW()
	return nil
}

// loadBoxW writes the box rows' dual objective entries.
func (s *Solver) loadBoxW() {
	d, m := s.d, s.m
	for j := 0; j < d; j++ {
		s.w[m+j] = s.hi[j]
		s.w[m+d+j] = -s.lo[j]
	}
}

// sizeScratch (re)sizes every buffer for dimension d and m constraints.
func (s *Solver) sizeScratch(d, m int) {
	s.cons = growFloat(s.cons, m*d)
	s.w = growFloat(s.w, m+2*d)
	s.inBasis = growBool(s.inBasis, m+2*d)
	if cap(s.basis) < d {
		s.basis = make([]int, d)
	} else {
		s.basis = s.basis[:d]
	}
	if cap(s.tight) < d {
		s.tight = make([]int, 0, d)
	}
	s.lambda = growFloat(s.lambda, d)
	s.pi = growFloat(s.pi, d)
	s.u = growFloat(s.u, d)
	s.colbuf = growFloat(s.colbuf, d)
	s.x = growFloat(s.x, d)
	if d != len(s.binv) {
		s.binvFlat = growFloat(s.binvFlat, d*d)
		s.binv = resliceRows(s.binv, s.binvFlat, d, d)
		s.matFlat = growFloat(s.matFlat, d*2*d)
		s.mat = resliceRows(s.mat, s.matFlat, d, 2*d)
	}
}

func growFloat(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// resliceRows carves rows of the given width out of one flat backing array.
func resliceRows(rows [][]float64, flat []float64, n, width int) [][]float64 {
	if cap(rows) < n {
		rows = make([][]float64, n)
	} else {
		rows = rows[:n]
	}
	for i := range rows {
		rows[i] = flat[i*width : (i+1)*width]
	}
	return rows
}

// column materializes dual column k into dst.
func (s *Solver) column(k int, dst []float64) {
	switch {
	case k < s.m:
		copy(dst, s.cons[k*s.d:(k+1)*s.d])
	case k < s.m+s.d:
		for i := range dst {
			dst[i] = 0
		}
		dst[k-s.m] = 1
	default:
		for i := range dst {
			dst[i] = 0
		}
		dst[k-s.m-s.d] = -1
	}
}

// Solve maximizes c over the loaded problem.
//
// Method. The dual of {max c·x : Ax ≤ b} is {min b·y : Aᵀy = c, y ≥ 0}. We
// fold the box into A as 2·d extra rows (+e_j ≤ hi_j and −e_j ≤ −lo_j), so
// the columns of Aᵀ include ±e_j for every dimension. Picking, for each j,
// the +e_j column when c_j ≥ 0 and the −e_j column otherwise yields a basis
// B = diag(±1) with B⁻¹c = |c| ≥ 0 — a dual-feasible starting point with no
// phase-1. Pricing uses Dantzig's rule and falls back to Bland's rule after a
// run of degenerate pivots, which guarantees termination.
//
// Each pivot updates B⁻¹, λ and π in place (see pivot) instead of
// refactoring; refresh recomputes all three from the basis every 2·d pivots
// and before either verdict that ends a solve. When pricing finds no
// entering column, or the ratio test no leaving row, under an updated
// inverse, the solve refreshes and decides again, so optimality and
// infeasibility — and the vertex returned — always come from a fresh
// factorization.
func (s *Solver) Solve(c []float64) (*Result, error) {
	if s.d == 0 {
		return nil, ErrNotLoaded
	}
	if len(c) != s.d {
		return nil, fmt.Errorf("lp: objective has %d coefficients, want %d", len(c), s.d)
	}
	s.c = c
	d := s.d
	// Starting basis: signed identity from box rows, its own inverse.
	clear(s.inBasis)
	for j := 0; j < d; j++ {
		row := s.binv[j]
		clear(row)
		if c[j] >= 0 {
			s.basis[j] = s.m + j // +e_j column
			row[j] = 1
		} else {
			s.basis[j] = s.m + s.d + j // -e_j column
			row[j] = -1
		}
		s.inBasis[s.basis[j]] = true
	}
	s.multipliers()

	lambda, u := s.lambda, s.u
	degenerate := 0
	bland := false
	sinceRefresh := 0
	for iters := 0; iters < maxPivots; {
		enter, red := s.price(bland)
		if enter < 0 && sinceRefresh > 0 {
			// Optimal under the updated inverse: confirm on a fresh one.
			if err := s.refresh(); err != nil {
				return nil, err
			}
			sinceRefresh = 0
			enter, red = s.price(bland)
		}
		if enter < 0 {
			return s.finish(iters)
		}

		// Direction u = B⁻¹ M_enter.
		s.column(enter, s.colbuf)
		for i := 0; i < d; i++ {
			row := s.binv[i]
			v := 0.0
			for j, a := range s.colbuf {
				v += row[j] * a
			}
			u[i] = v
		}

		// Ratio test: leaving row minimizes lambda_i / u_i over u_i > 0.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < d; i++ {
			if u[i] > tolPivot {
				ratio := lambda[i] / u[i]
				if ratio < bestRatio-tolRatio ||
					(ratio < bestRatio+tolRatio && (leave < 0 || s.basis[i] < s.basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			if sinceRefresh > 0 {
				// Unbounded under the updated inverse: confirm on a fresh one.
				if err := s.refresh(); err != nil {
					return nil, err
				}
				sinceRefresh = 0
				continue
			}
			// Dual unbounded ⇒ primal infeasible.
			return nil, ErrInfeasible
		}
		if bestRatio < tolRatio {
			degenerate++
			if degenerate > 2*d+20 {
				bland = true
			}
		} else {
			degenerate = 0
		}

		s.pivot(leave, enter, red)
		iters++
		sinceRefresh++
		if sinceRefresh >= 2*d {
			if err := s.refresh(); err != nil {
				return nil, err
			}
			sinceRefresh = 0
		}
	}
	return nil, ErrNumeric
}

// price returns the entering column — the one with the most negative reduced
// cost w_k − π·M_k, or under Bland's rule the lowest-index negative one — and
// its reduced cost; enter is −1 when every reduced cost is ≥ −tolRed.
func (s *Solver) price(bland bool) (enter int, red float64) {
	// The reslices to known lengths let the compiler drop the bounds checks
	// of the O(m·d) loop below.
	d, m := s.d, s.m
	pi, w, inBasis := s.pi[:d], s.w[:m+2*d], s.inBasis[:m+2*d]
	enter = -1
	bestRed := -tolRed
	for k := 0; k < m; k++ {
		if inBasis[k] {
			continue
		}
		r := w[k]
		col := s.cons[k*d : (k+1)*d]
		col = col[:len(pi)]
		for i, p := range pi {
			r -= p * col[i]
		}
		if r < bestRed {
			if bland {
				return k, r // Bland: first (lowest-index) improving column
			}
			bestRed, enter = r, k
		}
	}
	for k := m; k < m+2*d; k++ {
		if inBasis[k] {
			continue
		}
		var r float64
		if k < m+d {
			r = w[k] - pi[k-m]
		} else {
			r = w[k] + pi[k-m-d]
		}
		if r < bestRed {
			if bland {
				return k, r
			}
			bestRed, enter = r, k
		}
	}
	return enter, bestRed
}

// pivot replaces the basic column in row leave by column enter, whose
// direction u = B⁻¹ M_enter is in s.u and whose reduced cost is red. It
// applies the product-form (eta) update in O(d²) instead of refactoring:
// row leave of B⁻¹ is divided by u_leave and eliminated from every other
// row. λ = B⁻¹c moves by the ratio-test step θ = λ_leave/u_leave, and
// π = w_B·B⁻¹ by red times the new row leave of B⁻¹ — the one change that
// makes the entering column's reduced cost zero while every other basic
// column keeps its zero.
func (s *Solver) pivot(leave, enter int, red float64) {
	u, lambda, pi := s.u, s.lambda, s.pi
	inv := 1 / u[leave]
	theta := lambda[leave] / u[leave]
	pr := s.binv[leave]
	for j := range pr {
		pr[j] *= inv
	}
	for i, row := range s.binv {
		f := u[i]
		if i == leave || f == 0 {
			continue
		}
		for j, v := range pr {
			row[j] -= f * v
		}
		lambda[i] -= theta * f
	}
	lambda[leave] = theta
	for j, v := range pr {
		pi[j] += red * v
	}
	s.inBasis[s.basis[leave]] = false
	s.inBasis[enter] = true
	s.basis[leave] = enter
}

// refresh refactors B⁻¹ from the current basis and recomputes λ and π from
// it, discarding any drift the eta updates accumulated. Its result depends
// only on the basis, so a solve that ends on the same basis returns the same
// bits however many updates led there.
func (s *Solver) refresh() error {
	if err := s.refactor(); err != nil {
		return err
	}
	s.multipliers()
	return nil
}

// multipliers computes λ = B⁻¹c and π = w_B·B⁻¹ from the current B⁻¹.
func (s *Solver) multipliers() {
	d, c := s.d, s.c
	for i := 0; i < d; i++ {
		v := 0.0
		for j := 0; j < d; j++ {
			v += s.binv[i][j] * c[j]
		}
		s.lambda[i] = v
	}
	for j := 0; j < d; j++ {
		v := 0.0
		for i := 0; i < d; i++ {
			v += s.w[s.basis[i]] * s.binv[i][j]
		}
		s.pi[j] = v
	}
}

// finish recovers the primal vertex from the final basis. At dual optimality
// every reduced cost w_k − π·M_k is ≥ 0, i.e. a_k·π ≤ b_k for all primal
// constraints, with equality on the basic columns — so the simplex
// multipliers π are exactly the complementary primal vertex, and
// c·π = w_B·λ is the optimal value by strong duality.
func (s *Solver) finish(iters int) (*Result, error) {
	d := s.d
	copy(s.x, s.pi)
	val := 0.0
	for j := 0; j < d; j++ {
		val += s.c[j] * s.x[j]
	}
	tight := s.tight[:0]
	for i, k := range s.basis {
		if k < s.m && s.lambda[i] > tolRed {
			tight = append(tight, k)
		}
	}
	s.tight = tight
	s.res = Result{X: s.x, Value: val, Iterations: iters}
	if len(tight) > 0 {
		s.res.Tight = tight
	}
	return &s.res, nil
}

// refactor recomputes binv = B⁻¹ from scratch into the preallocated scratch
// matrix by Gauss-Jordan elimination: O(d³), against the O(d²) of a pivot's
// eta update, which is why Solve calls it only through refresh.
func (s *Solver) refactor() error {
	d := s.d
	mat := s.mat
	col := s.colbuf
	for j, k := range s.basis {
		s.column(k, col)
		for i := 0; i < d; i++ {
			mat[i][j] = col[i]
		}
	}
	for i := 0; i < d; i++ {
		right := mat[i][d:]
		for j := range right {
			right[j] = 0
		}
		right[i] = 1
	}
	// Gauss-Jordan with partial pivoting on the augmented [B | I].
	for c := 0; c < d; c++ {
		p := c
		for r := c + 1; r < d; r++ {
			if math.Abs(mat[r][c]) > math.Abs(mat[p][c]) {
				p = r
			}
		}
		if math.Abs(mat[p][c]) < tolPivot {
			return fmt.Errorf("lp: singular basis (pivot %e in column %d)", mat[p][c], c)
		}
		mat[c], mat[p] = mat[p], mat[c]
		inv := 1 / mat[c][c]
		for j := 0; j < 2*d; j++ {
			mat[c][j] *= inv
		}
		for r := 0; r < d; r++ {
			if r == c || mat[r][c] == 0 {
				continue
			}
			f := mat[r][c]
			for j := 0; j < 2*d; j++ {
				mat[r][j] -= f * mat[c][j]
			}
		}
	}
	for i := 0; i < d; i++ {
		copy(s.binv[i], mat[i][d:])
	}
	return nil
}
